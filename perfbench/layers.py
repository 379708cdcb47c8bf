"""Which public functions the traced run wraps, and the per-layer metrics
derived from their spans.

The metrics' names and units are listed in BENCHMARK.json.  Each should
move one end-to-end timing: realisation and linalg (except loop_margins)
move the search; loop_margins, freq_response and cli move the CLI session;
qp, runtime, mpc and sim move the replay.  Every workload reports every
metric; a layer that does no work in a workload's repetition reads 0 there.
"""

from __future__ import annotations

import numpy as np

from checks import kkt_violation
from tracer import percentile

# (span name, module, attribute) -- installed by name, absent names tolerated
TARGETS = [
    ("realisation.search_realisations", "lti2mpc.realisation", "search_realisations"),
    ("realisation.enumerate_choices", "lti2mpc.realisation", "enumerate_choices"),
    ("realisation.solve_T", "lti2mpc.realisation", "solve_T"),
    ("realisation.design_free_poles", "lti2mpc.realisation", "design_free_poles"),
    ("realisation.build_realisation", "lti2mpc.realisation", "build_realisation"),
    ("realisation.score_realisation", "lti2mpc.realisation", "score_realisation"),
    ("realisation.verify_equivalence", "lti2mpc.realisation", "verify_equivalence"),
    ("linalg.h2_norm", "lti2mpc.linalg", "h2_norm"),
    ("linalg.solve_discrete_lyapunov", "lti2mpc.linalg", "solve_discrete_lyapunov"),
    ("linalg.solve_dare_kalman", "lti2mpc.linalg", "solve_dare_kalman"),
    ("linalg.spectral_radius", "lti2mpc.linalg", "spectral_radius"),
    ("linalg.loop_margins", "lti2mpc.linalg", "loop_margins"),
    ("statespace.freq_response", "lti2mpc.statespace", "DtStateSpace.freq_response"),
    ("qp.solve_qp", "lti2mpc.qp", "solve_qp"),
    ("runtime.mpc_step", "lti2mpc.runtime", "mpc_step"),
    ("runtime.filter_measurement_update", "lti2mpc.runtime", "filter_measurement_update"),
    ("runtime.filter_time_update", "lti2mpc.runtime", "filter_time_update"),
    ("runtime.predictor_observer_step", "lti2mpc.runtime", "predictor_observer_step"),
    ("runtime.prefilter", "lti2mpc.runtime", "Prefilter.step"),
    ("mpc.build_condensed_qp", "lti2mpc.mpc", "build_condensed_qp"),
    ("sim.simulate", "lti2mpc.sim", "simulate"),
    ("sim.scenario_library", "lti2mpc.sim", "scenario_library"),
    ("cli.main", "lti2mpc.cli", "main"),
    ("cli.realise", "lti2mpc.cli", "cmd_realise"),
    ("cli.simulate", "lti2mpc.cli", "cmd_simulate"),
    ("cli.verify", "lti2mpc.cli", "cmd_verify"),
]

# spans whose arguments and results the metrics below read
KEEP_CALLS = ("realisation.search_realisations", "statespace.freq_response",
              "qp.solve_qp", "runtime.mpc_step", "sim.simulate")

_TIMED = {
    "realisation": ("enumerate_choices", "solve_T", "design_free_poles",
                    "build_realisation", "score_realisation", "verify_equivalence"),
    "linalg": ("h2_norm", "solve_discrete_lyapunov", "solve_dare_kalman",
               "spectral_radius", "loop_margins"),
}

def _reject_class(reason):
    if reason.startswith("residual"):
        return "residual"
    if reason.startswith("U1 ill conditioned"):
        return "cond"
    return "build"


def layer_metrics(tracer, rep_id, checks):
    """Per-layer values of one traced repetition (without the trace.* ones).

    Every ``solve_qp`` return is checked against the KKT conditions of its
    own (H, f, A, b); each violation is a failed check.
    """
    S = tracer.summary(rep_id)
    rec = {name: [r for r in calls if tracer.rep[r[0]] == rep_id]
           for name, calls in tracer.records.items()}

    def get(name, field):
        return S.get(name, {}).get(field, 0)

    def p_us(name, q):
        d = S.get(name, {}).get("durations", [])
        return 1e6 * percentile(d, q) if d else 0.0

    m = {}
    splits = feasible = 0
    rejected = {"residual": 0, "cond": 0, "build": 0}
    for _, _, _, result in rec.get("realisation.search_realisations", []):
        feasible += len(result.ranked)
        splits += len(result.ranked) + len(result.rejected)
        for _, reason in result.rejected:
            rejected[_reject_class(reason)] += 1
    m["realisation.splits"] = splits
    m["realisation.feasible"] = feasible
    m["realisation.feasible_ratio"] = feasible / splits if splits else 0.0
    for cls, n in rejected.items():
        m[f"realisation.rejected.{cls}"] = n
    m["realisation.search_realisations.s"] = get("realisation.search_realisations", "s")
    m["realisation.search_realisations.self_s"] = get("realisation.search_realisations", "self_s")
    for layer, fns in _TIMED.items():
        for fn in fns:
            m[f"{layer}.{fn}.s"] = get(f"{layer}.{fn}", "s")
            m[f"{layer}.{fn}.calls"] = get(f"{layer}.{fn}", "calls")

    m["statespace.freq_response.s"] = get("statespace.freq_response", "s")
    m["statespace.freq_response.calls"] = get("statespace.freq_response", "calls")
    m["statespace.freq_points"] = sum(
        int(np.size(tracer.arguments("statespace.freq_response", args, kwargs)["w_ts"]))
        for _, args, kwargs, _ in rec.get("statespace.freq_response", []))

    m["qp.solve_qp.s"] = get("qp.solve_qp", "s")
    m["qp.solve_qp.calls"] = get("qp.solve_qp", "calls")
    m["qp.solve_qp.p50_us"] = p_us("qp.solve_qp", 50)
    m["qp.solve_qp.p99_us"] = p_us("qp.solve_qp", 99)
    iterations = constrained = active_max = repeats = nonoptimal = violations = 0
    previous: dict = {}  # enclosing simulate span -> previous active set
    for idx, args, kwargs, sol in rec.get("qp.solve_qp", []):
        arg = tracer.arguments("qp.solve_qp", args, kwargs)
        iterations += sol.iterations
        active = frozenset(sol.active_set)
        active_max = max(active_max, len(active))
        sim_span = tracer.ancestor_named(idx, "sim.simulate")
        if active:
            constrained += 1
            repeats += previous.get(sim_span) == active
        previous[sim_span] = active
        if sol.status != "optimal":
            nonoptimal += 1
            continue
        problem = kkt_violation(arg["H"], arg["f"], arg["A"], arg["b"], sol)
        violations += bool(problem)
        checks.check(not problem, f"solve_qp KKT: {problem}")
    m["qp.iterations"] = iterations
    m["qp.constrained_solves"] = constrained
    m["qp.active_max"] = active_max
    m["qp.repeat_active_set"] = repeats
    m["qp.nonoptimal"] = nonoptimal
    m["qp.kkt_violations"] = violations

    m["runtime.mpc_step.s"] = get("runtime.mpc_step", "s")
    m["runtime.mpc_step.calls"] = get("runtime.mpc_step", "calls")
    m["runtime.mpc_step.p50_us"] = p_us("runtime.mpc_step", 50)
    m["runtime.mpc_step.p99_us"] = p_us("runtime.mpc_step", 99)
    m["runtime.observer.s"] = sum(get(f"runtime.{fn}", "s") for fn in (
        "filter_measurement_update", "filter_time_update", "predictor_observer_step"))
    m["runtime.prefilter.s"] = get("runtime.prefilter", "s")
    m["runtime.fallbacks"] = sum(bool(getattr(res, "fallback", False))
                                 for _, _, _, res in rec.get("runtime.mpc_step", []))

    m["mpc.build_condensed_qp.s"] = get("mpc.build_condensed_qp", "s")
    m["mpc.build_condensed_qp.calls"] = get("mpc.build_condensed_qp", "calls")
    m["sim.simulate.self_s"] = get("sim.simulate", "self_s")
    m["sim.simulate.calls"] = get("sim.simulate", "calls")
    m["sim.steps"] = sum(len(tr) for _, _, _, tr in rec.get("sim.simulate", []))
    m["sim.scenario_library.s"] = get("sim.scenario_library", "s")
    m["sim.scenario_library.calls"] = get("sim.scenario_library", "calls")
    for cmd in ("main", "realise", "simulate", "verify"):
        m[f"cli.{cmd}.self_s"] = get(f"cli.{cmd}", "self_s")
    return m, S
