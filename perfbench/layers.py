"""Per-layer metrics of one traced run, computed from its spans.

Every workload reports every metric; a metric whose layer does no work
on a workload reads 0 there (for example ``geodesic.sweeps`` on
angle-fuzz).  ``run.py`` adds the two metrics that compare the traced
run with the plain one: page faults per sweep, counted in the plain run
because the tracer's own allocations change the heap, and the tracing
overhead.  Per-operation figures count only spans opened inside the
timed operations, not those of set-up.  ``perfbench/metric_map.json``
records which end-to-end metric each one should move, on which workload.
"""

from __future__ import annotations

from tracing import Aggregate
from workloads import AngleFuzz


def _per(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def layer_metrics(tracer, workload, plain, ops):
    """(metrics, self-time table) of the traced ``workload`` after ``ops``
    traced operations.

    ``plain`` is the untraced instance of the same workload, which
    carries the throughput figures that need no spans.
    """
    every = Aggregate(tracer)
    agg = Aggregate(tracer, ops_only=True, self_t=every.self_t)
    m = {}

    # geodesic: solves
    solves = agg.spans("geodesic.solve")
    work = [workload.sweep_work(i) for i in range(ops)] if solves else []
    n_solves, sweeps, sweep_points = (sum(col) for col in zip(*work)) if work else (0, 0, 0)
    m["geodesic.sweeps"] = _per(sweeps, n_solves)
    m["geodesic.sweep_ns_per_point"] = _per(agg.self_total("geodesic.solve"), sweep_points, 1e9)
    m["geodesic.solve_self_s"] = _per(agg.self_total("geodesic.solve"), len(solves))
    validate = agg.total_under("geodesic.interior_jets", "geodesic.solve") + agg.total_under(
        "geodesic.validate_slices", "geodesic.solve"
    )
    m["geodesic.validate_s"] = _per(validate, len(solves))
    m["geodesic.barriers_s"] = _per(agg.total_under("geodesic.build_barriers", "geodesic.solve"), len(solves))

    # geodesic: pointwise updates
    updates = agg.calls("geodesic.perron_update")
    m["geodesic.perron_update_self_ms"] = _per(agg.self_total("geodesic.perron_update"), updates, 1e3)
    m["geodesic.assemble_jet_ms"] = _per(
        agg.total("geodesic.assemble_jet"), agg.calls("geodesic.assemble_jet"), 1e3
    )
    m["geodesic.angle_evals_per_update"] = _per(
        len(agg.under("angles.phi_lifted_usc", "geodesic.perron_update")), updates
    )
    m["geodesic.perron_defect_max"] = max(
        getattr(workload, "defect_max", 0.0), getattr(plain, "defect_max", 0.0)
    )

    # geometry
    m["geometry.complex_hessian_calls"] = _per(agg.calls("geometry.complex_hessian"), ops)
    m["geometry.complex_hessian_ns_per_point"] = _per(
        agg.self_total("geometry.complex_hessian"), agg.work("geometry.complex_hessian"), 1e9
    )
    m["geometry.lambda_endo_s"] = _per(agg.total("geometry.lambda_endo"), ops)
    m["geometry.angle_field_s"] = _per(agg.total("geometry.angle_field"), ops)
    m["geometry.select_branch_s"] = _per(
        every.total("geometry.select_branch"), every.calls("geometry.select_branch")
    )

    # angles: batch kernels on one thread (the 2-thread fuzz phase runs its
    # shards in pool threads, whose spans have no parent)
    def one_thread(name):
        if isinstance(workload, AngleFuzz):
            return agg.under(name, "bench.threads-1")
        return agg.spans(name)

    lifted = one_thread("angles.phi_lifted_usc_batch") + one_thread("angles.phi_lifted_lsc_batch")
    theta = one_thread("angles.theta_batch")
    m["angles.lifted_batch_ns_per_matrix"] = _per(
        sum(agg.self_t[i] for i in lifted), sum(tracer.work[i] for i in lifted), 1e9
    )
    m["angles.theta_batch_ns_per_matrix"] = _per(
        sum(agg.self_t[i] for i in theta), sum(tracer.work[i] for i in theta), 1e9
    )
    scalar = agg.calls("angles.phi_lifted_usc") + agg.calls("angles.phi_lifted_lsc")
    m["angles.lifted_scalar_us_per_call"] = _per(
        agg.total("angles.phi_lifted_usc") + agg.total("angles.phi_lifted_lsc"), scalar, 1e6
    )
    m["angles.scalar_calls"] = _per(scalar, ops)

    # subequations
    m.update(fuzz_metrics(plain))
    m["subequations.strict_margin_ms"] = _per(
        agg.total("subequations.strict_margin"), agg.calls("subequations.strict_margin"), 1e3
    )

    # linalg
    herm = agg.calls("linalg.check_hermitian")
    m["linalg.check_hermitian_calls"] = _per(herm, ops)
    m["linalg.check_hermitian_us"] = _per(agg.total("linalg.check_hermitian"), herm, 1e6)

    # config / cli
    m["config.load_problem_s"] = _per(agg.total("config.load_problem"), agg.calls("config.load_problem"))
    mains = agg.calls("cli.main")
    cli_self = (
        agg.total("cli.main")
        - agg.total_under("config.load_problem", "cli.main")
        - agg.total_under("geodesic.solve", "cli.main")
    )
    m["cli.main_self_s"] = _per(cli_self, mains)
    return m, agg.table()


def fuzz_metrics(fuzz):
    """Throughput per suite and per thread count from an AngleFuzz run."""
    labels = AngleFuzz.LABELS
    m = {f"subequations.trials_per_s.{label}": 0.0 for label in labels}
    m.update(
        {
            "subequations.acceptance_rate": 0.0,
            "subequations.trials_per_s_1t": 0.0,
            "subequations.trials_per_s_2t": 0.0,
            "subequations.speedup_2t": 0.0,
        }
    )
    if not isinstance(fuzz, AngleFuzz) or not any(fuzz.suite_trials.values()):
        return m
    secs = fuzz.suite_seconds
    for label in labels:
        m[f"subequations.trials_per_s.{label}"] = _per(fuzz.suite_trials[label], secs[(label, 1)])
    trials = sum(fuzz.suite_trials.values())
    t1 = sum(secs[(label, 1)] for label in labels)
    t2 = sum(secs[(label, 2)] for label in labels)
    m["subequations.acceptance_rate"] = _per(sum(fuzz.acceptance), len(fuzz.acceptance))
    m["subequations.trials_per_s_1t"] = _per(trials, t1)
    m["subequations.trials_per_s_2t"] = _per(trials, t2)
    m["subequations.speedup_2t"] = _per(t1, t2)
    return m
