"""Batch front-end: JSON config in, JSON reports and CSV traces out.

Commands
--------
realise     enumerate and rank observer realisations, write a JSON report
simulate    run a named scenario, write a CSV trace plus a JSON summary
verify      check realisation invariants and controller equivalence
discretise  emit the discrete-time plant/controller matrices as JSON

Flags: --config <path>, --scenario <name>, --out <path>, --seed <u64>.
Exit codes: 0 success, 1 domain error (no feasible realisation, unstable
loop, unknown scenario, near-singular MPC Hessian, failed verification),
2 config error (unreadable file, bad JSON, a value of the wrong type or
size, a NaN or an integer beyond float range, unknown keys, options the
search refuses, a loop its form refuses, a ``margin_cut`` that is not an
input or is one the controller never drives (refused after the search),
a scenario number ``simulate`` refuses, any ``mpc`` key with a
library-based scenario, a weight of the mpc cost not in use, a
mis-shaped ``verify_gains`` matrix).  JSON
-Infinity as a lower and +Infinity as an upper bound disable that side of
a bound row; the other sides, a Ts, a dipole_W, an mpc weight, a
verify_gains matrix, or a scenario duration, x0 or noise_sigma refuse
it.

Config schema (all sections optional unless a command needs them):

    {
      "plant": "satellite" | "pendulum" |
               {"kind": "continuous"|"discrete",
                "A": [[...]], "B": [[...]], "C": [[...]], "D": [[...]],
                "Ts": 0.25},
      "controller": same shape as plant,
      "Ts": 0.25,                    # used when discretising matrices;
                                     # a built-in's own Ts if given with one
      "pipeline": {"form": "filter"|"predictor", "dipole_W": 100.0,
                   "loop_shift": false, "disturbance_channels": [0],
                   "Qn": 1.0, "Rn": 1e7, "rank_by": "product"|"noise",
                   "margin_cut": 0, "forced_S": [0, 4]},
      "mpc": {"N": 15, "cost": "matching"|"effect", "W": [[...]],
              "Q1": 1e3, "R1": 1e-3,
              "u_bounds": [[lo...],[hi...]], "y_bounds": ..., "x_bounds": ...,
              "soft_output_weight": 1e5},
      "scenarios": {"my-run": {"base": "satellite-case-2", "duration": 20.0,
                               "seed": 7, "noise_sigma": [1e-5],
                               "x0": [0.0, 0.0, 0.0]}},
      "verify_gains": {"form": "filter", "K_c": [[...]], "K_f": [[...]],
                       "T": [[...]]}        # optional external gains check
    }

Every section is checked against ``_SCHEMA`` before any numerics; sizes
and scenario numbers are checked by the library objects that use them.
``mpc`` configures custom scenarios (entries without ``base``, which
regulate to zero) only; simulating a library-based scenario refuses any
key of it.

A built-in name selects a case study of ``models.CASE_STUDIES``: its
models, its sample time and, as pipeline defaults, its conditioning
(dipole or loop shift), observer form, ranking and margin cut.  Its
disturbance model is the case study's own, so ``disturbance_channels``
is refused with a built-in plant.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from .linalg import NumericalError, UnstableSystemError, loop_margins, spectral_radius
from .models import CASE_STUDIES, condition_loop
from .mpc import MpcConfig, effect_weight, matching_cost
from .realisation import (
    _FORMS,
    ObserverRealisation,
    _form,
    closed_loop_matrix,
    margin_loop,
    realisation_controller,
    riccati_residual,
    search_realisations,
    verify_equivalence,
)
from .sim import (
    BaselineController,
    MpcController,
    Scenario,
    scenario_library,
    simulate,
)
from .statespace import (
    CtStateSpace,
    DtStateSpace,
    augment_disturbances,
    c2d_tustin,
    c2d_zoh,
)

__all__ = ["ConfigError", "DomainError", "load_config", "main"]


class ConfigError(ValueError):
    """Unusable configuration: exit code 2."""


class DomainError(RuntimeError):
    """Well-formed request that cannot be satisfied: exit code 1."""


def _rule(what, test, convert=lambda v, name: v):
    """A value rule: ``convert(v, name)`` of a value that passes ``test``,
    otherwise a ConfigError saying that ``name`` must be ``what``."""
    def rule(v, name):
        if not test(v):
            raise ConfigError(f"{name} must be {what}")
        return convert(v, name)
    return rule


def _one_of(*options):
    return _rule(" or ".join(map(repr, options)), lambda v: v in options)


def _list_of(item, what="a list", size=None):
    return _rule(what, lambda v: isinstance(v, list) and size in (None, len(v)),
                 lambda v, name: [item(x, f"{name}[{i}]") for i, x in enumerate(v)])


def _number(v, name):
    """A JSON number as a float; +-Infinity passes (it disables a bound side)."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{name} must be a number")
    try:
        x = float(v)
    except OverflowError:
        raise ConfigError(f"{name} is too large for a float") from None
    if math.isnan(x):
        raise ConfigError(f"{name} must be a number, not NaN")
    return x


_integer = _rule("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool))
_boolean = _rule("true or false", lambda v: isinstance(v, bool))
_text = _rule("a string", lambda v: isinstance(v, str))
_integers, _numbers = _list_of(_integer), _list_of(_number)
_pair = _list_of(_numbers, "[lower, upper]", 2)
_entries = _rule("an object of named entries", lambda v: isinstance(v, dict))
_walked = _rule("", lambda v: True)  # a system or a section, walked by parse_config
_REQUIRED = object()  # the default of a key that must be given


def _rows(v, name):
    rows = _list_of(_numbers)(v, name)
    if len({len(r) for r in rows}) != 1:
        raise ConfigError(f"{name} must be a matrix of equal-length rows")
    return rows


def _finite_rows(v, name):
    rows = _rows(v, name)
    if not np.isfinite(rows).all():
        raise ConfigError(f"{name} must be finite")
    return rows


# section -> key -> (rule, default)
_SCHEMA = {
    "config": {"plant": (_walked, _REQUIRED), "controller": (_walked, None),
               "Ts": (_number, None), "pipeline": (_walked, {}), "mpc": (_walked, {}),
               "scenarios": (_entries, {}), "verify_gains": (_walked, None)},
    "pipeline": {"form": (_one_of(*_FORMS), "filter"), "dipole_W": (_number, None),
                 "loop_shift": (_boolean, False), "disturbance_channels": (_integers, None),
                 "Qn": (_number, 1.0), "Rn": (_number, 1e7),
                 "rank_by": (_one_of("product", "noise"), "product"),
                 "margin_cut": (_integer, None), "forced_S": (_integers, None)},
    "mpc": {"N": (_integer, 15), "cost": (_one_of("matching", "effect"), "matching"),
            "W": (_rows, None), "Q1": (_number, 1e3), "R1": (_number, 1e-3),
            "u_bounds": (_pair, None), "y_bounds": (_pair, None), "x_bounds": (_pair, None),
            "soft_output_weight": (_number, 1e5)},
    "system": {"kind": (_one_of("continuous", "discrete"), "discrete"),
               **{m: (_rows, _REQUIRED) for m in "ABCD"}, "Ts": (_number, None)},
    "scenario": {"base": (_text, None), "duration": (_number, None), "seed": (_integer, None),
                 "noise_sigma": (_numbers, None), "x0": (_numbers, None)},
    "verify_gains": {"form": (_one_of(*_FORMS), "filter"), "K_c": (_finite_rows, _REQUIRED),
                     "K_f": (_finite_rows, _REQUIRED), "T": (_finite_rows, None)},
}
# the weights each mpc cost reads; the other cost's are refused if given,
# and dropped from the parsed section
_COST_WEIGHTS = {"matching": ("W",), "effect": ("Q1", "R1")}
# the pipeline defaults a built-in name sets from its CASE_STUDIES entry
_CASE_STUDY_KEYS = ("form", "dipole_W", "loop_shift", "rank_by", "margin_cut")


def _section(raw, name, schema, defaults=None) -> dict:
    """``raw`` checked key by key against ``schema`` with every default
    filled in; ``defaults`` overrides the schema's.  A key whose schema
    default is null may be given as null."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{name} must be an object")
    unknown = set(raw) - set(schema)
    if unknown:
        raise ConfigError(f"unknown {name} keys {sorted(unknown)}")
    out = {}
    for key, (rule, default) in schema.items():
        value = raw.get(key, (defaults or {}).get(key, default))
        if value is _REQUIRED:
            raise ConfigError(f"{name} needs {key!r}")
        out[key] = None if value is None and default is None else rule(value, f"{name}.{key}")
    return out


def _parse_system(obj, what):
    """Return a builtin name or a state-space object."""
    if isinstance(obj, str):
        if obj not in CASE_STUDIES:
            raise ConfigError(f"unknown built-in {what} {obj!r}")
        return obj
    spec = _section(obj, what, _SCHEMA["system"])
    A, B, C, D = (np.array(spec[k], float) for k in "ABCD")
    if spec["kind"] == "discrete" and spec["Ts"] is None:
        raise ConfigError(f"discrete {what} needs a positive Ts")
    try:
        if spec["kind"] == "continuous":
            return CtStateSpace(A, B, C, D)
        return DtStateSpace(A, B, C, D, spec["Ts"])
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from None


@dataclasses.dataclass
class ProjectConfig:
    plant: object
    controller: object
    Ts: float | None
    pipeline: dict
    mpc: dict
    mpc_given: bool  # whether the config sets any mpc key
    scenarios: dict
    verify_gains: dict | None


def parse_config(raw: dict) -> ProjectConfig:
    """Check every section of ``raw`` against ``_SCHEMA`` before any numerics."""
    top = _section(raw, "config", _SCHEMA["config"])
    plant = _parse_system(top["plant"], "plant")
    controller = top["controller"]
    if controller is None:
        if not isinstance(plant, str):
            raise ConfigError("config needs a 'controller'")
        controller = plant
    controller = _parse_system(controller, "controller")
    Ts = top["Ts"]
    for what, name in (("plant", plant), ("controller", controller)):
        if isinstance(name, str) and Ts not in (None, CASE_STUDIES[name].Ts):
            raise ConfigError(f"built-in {what} {name!r} runs at Ts "
                              f"{CASE_STUDIES[name].Ts}, not {Ts}")

    case = {k: getattr(CASE_STUDIES[plant], k) for k in _CASE_STUDY_KEYS} \
        if isinstance(plant, str) else None
    pipeline = _section(top["pipeline"], "pipeline", _SCHEMA["pipeline"], case)
    if isinstance(plant, str) and pipeline["disturbance_channels"] is not None:
        raise ConfigError(f"built-in plant {plant!r} takes its disturbance model from "
                          "its case study; pipeline.disturbance_channels needs a matrix plant")
    mpc = _section(top["mpc"], "mpc", _SCHEMA["mpc"])
    for cost, keys in _COST_WEIGHTS.items():
        if cost == mpc["cost"]:
            continue
        for key in keys:
            if key in top["mpc"]:
                raise ConfigError(f"mpc.{key} weighs the {cost} cost, not the "
                                  f"{mpc['cost']} cost in use")
            del mpc[key]
    scenarios = {name: _section(spec, f"scenarios.{name}", _SCHEMA["scenario"])
                 for name, spec in top["scenarios"].items()}
    vg = top["verify_gains"]
    if vg is not None:
        vg = _section(vg, "verify_gains", _SCHEMA["verify_gains"], {"form": pipeline["form"]})
    return ProjectConfig(plant=plant, controller=controller, Ts=Ts, pipeline=pipeline,
                         mpc=mpc, mpc_given=bool(top["mpc"]), scenarios=scenarios,
                         verify_gains=vg)


def load_config(path) -> ProjectConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    return parse_config(raw)


_C2D = {"plant": ("zoh", c2d_zoh), "controller": ("tustin", c2d_tustin)}


def _discrete(spec, what, Ts):
    """(method, discrete system): a continuous plant by ZOH and a continuous
    controller by Tustin at ``Ts``, which a continuous system needs."""
    if isinstance(spec, DtStateSpace):
        return "none", spec
    if Ts is None:
        raise ConfigError(f"continuous {what} needs a top-level Ts")
    method, c2d = _C2D[what]
    try:
        return method, c2d(spec, Ts)
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from None


def build_problem(cfg: ProjectConfig):
    """Resolve (truth plant, baseline controller, design plant, design
    controller) after dipole/loop-shift conditioning (see
    :func:`~lti2mpc.models.condition_loop`)."""
    def resolve(what):
        spec = getattr(cfg, what)
        if isinstance(spec, str):
            return getattr(CASE_STUDIES[spec], what)()
        return _discrete(spec, what, cfg.Ts)[1]

    G, K0 = resolve("plant"), resolve("controller")
    if G.Ts != K0.Ts:
        raise ConfigError(
            f"plant Ts {G.Ts} and controller Ts {K0.Ts} differ")
    pl = cfg.pipeline
    try:
        if pl["disturbance_channels"]:
            G = augment_disturbances(G, pl["disturbance_channels"])
        return (G, *condition_loop(G, K0, pl["dipole_W"], pl["loop_shift"]))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _mpc_config(cfg: ProjectConfig, G_d: DtStateSpace, K_c) -> MpcConfig:
    m = cfg.mpc
    bounds = {k: None if m[k] is None else tuple(np.asarray(side, float) for side in m[k])
              for k in ("u_bounds", "y_bounds", "x_bounds")}
    try:
        W = effect_weight(G_d, m["Q1"], m["R1"]) if m["cost"] == "effect" else m["W"]
        return MpcConfig(N=m["N"], cost=matching_cost(K_c, W), **bounds,
                         soft_output_weight=m["soft_output_weight"])
    except ValueError as exc:
        raise ConfigError(f"mpc options: {exc}") from None


def _poles_json(M):
    vals = np.linalg.eigvals(M)
    vals = sorted(vals, key=lambda z: (round(z.real, 12), round(z.imag, 12)))
    return [{"re": float(z.real), "im": float(z.imag)} for z in vals]


def _system_json(sys_) -> dict:
    out = {"A": sys_.A.tolist(), "B": sys_.B.tolist(),
           "C": sys_.C.tolist(), "D": sys_.D.tolist()}
    if isinstance(sys_, DtStateSpace):
        out["kind"] = "discrete"
        out["Ts"] = sys_.Ts
    else:
        out["kind"] = "continuous"
    return out


def _config_echo(cfg: ProjectConfig) -> dict:
    def sysrep(s):
        return s if isinstance(s, str) else _system_json(s)

    out = {"plant": sysrep(cfg.plant), "controller": sysrep(cfg.controller),
           "pipeline": cfg.pipeline, "scenarios": cfg.scenarios}
    if cfg.mpc_given:  # a library scenario refuses any mpc key, even at its default
        out["mpc"] = cfg.mpc
    if cfg.Ts is not None:
        out["Ts"] = cfg.Ts
    if cfg.verify_gains is not None:
        out["verify_gains"] = cfg.verify_gains
    return out


def _write_json(doc: dict, out_path):
    text = json.dumps(doc, indent=2)
    if out_path is None:
        print(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")


def _run_search(cfg: ProjectConfig, G_d, K_d):
    """The configured search of (G_d, K_d); an unstable loop or no feasible
    split is a DomainError, an option or a loop the search refuses a ConfigError."""
    pl = cfg.pipeline
    try:
        return search_realisations(G_d, K_d, form=pl["form"], forced_S=pl["forced_S"],
                                   Qn=pl["Qn"], Rn=pl["Rn"], rank_by=pl["rank_by"])
    # UnstableSystemError is a ValueError, so it is caught first
    except (UnstableSystemError, NumericalError) as exc:
        raise DomainError(str(exc)) from None
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def cmd_realise(cfg: ProjectConfig, out_path) -> int:
    _, _, G_d, K_d = build_problem(cfg)
    found = _run_search(cfg, G_d, K_d)
    cut = cfg.pipeline["margin_cut"]
    rows = []
    for rank, (r, score) in enumerate(found.ranked, start=1):
        row = {
            "rank": rank,
            "S": list(r.choice.state_feedback_set),
            "observer_modes": list(r.choice.observer_set),
            "h2_noise": score.h2_noise,
            "h2_dist": score.h2_dist,
            "product": score.product,
            "stable": score.stable,
            "riccati_residual": r.riccati_residual,
            "error_poles": _poles_json(_form(r.form).noise_system(r, G_d).A),
            "K_c": r.K_c.tolist(),
            "K_f": r.K_f.tolist(),
            "T": r.T.tolist(),
        }
        if cut is not None:
            try:  # built on every row, so a bad cut is refused whatever the rows
                L = margin_loop(r, G_d, cut)
            except ValueError as exc:
                raise ConfigError(f"pipeline.margin_cut: {exc}") from None
            if score.stable:  # an unstable row's margins mean nothing
                m = loop_margins(L)
                row["margins"] = {"gain": m.gain_margin, "phase": m.phase_margin,
                                  "delay_samples": m.delay_margin}
        rows.append(row)
    report = {
        "command": "realise",
        "form": cfg.pipeline["form"],
        "rank_by": cfg.pipeline["rank_by"],
        "plant": {"n": G_d.n, "n_u": G_d.n_u, "n_y": G_d.n_y},
        "controller": {"n": K_d.n},
        "feasible": len(found.ranked),
        "rejected": [{"S": list(c.state_feedback_set), "reason": reason}
                     for c, reason in found.rejected],
        "realisations": rows,
        "config": _config_echo(cfg),
    }
    _write_json(report, out_path)
    return 0


def _custom_scenario(cfg: ProjectConfig, name: str, spec: dict) -> Scenario:
    """MPC loop on the config's own plant/controller (regulation only)."""
    if spec["duration"] is None:
        raise ConfigError(f"custom scenario {name!r} needs a 'duration'")
    G, _, G_d, K_d = build_problem(cfg)
    real = _run_search(cfg, G_d, K_d).ranked[0][0]
    ctrl = MpcController(realisation=real, design_model=G_d,
                         config=_mpc_config(cfg, G_d, real.K_c))
    return Scenario(name=name, plant=G, controller=ctrl, **_scenario_fields(spec))


def _scenario_fields(spec: dict) -> dict:
    """The Scenario fields a config entry sets."""
    return {k: np.asarray(v, float) if isinstance(v, list) else v
            for k, v in spec.items() if k != "base" and v is not None}


def _library_scenario(name: str) -> Scenario | None:
    """The library scenario ``name`` or None, building only its plant's family."""
    family = name.split("-")[0]
    return scenario_library(family).get(name) if family in CASE_STUDIES else None


def _resolve_scenario(cfg: ProjectConfig, name: str) -> Scenario:
    """The config's entry ``name``, else the library scenario ``name``; only
    a custom entry (one without a base) takes the ``mpc`` section, and a
    library one refuses any mpc key given, even at its default."""
    spec = cfg.scenarios.get(name)
    if spec is not None and spec["base"] is None:
        return _custom_scenario(cfg, name, spec)
    if cfg.mpc_given:
        raise ConfigError(f"scenario {name!r} comes from the library; "
                          "mpc configures custom scenarios only")
    base = name if spec is None else spec["base"]
    sc = _library_scenario(base)
    if sc is None:
        raise DomainError(f"unknown scenario {name!r}" if spec is None
                          else f"scenario {name!r}: unknown base {base!r}")
    return sc if spec is None else dataclasses.replace(sc, name=name, **_scenario_fields(spec))


def _baseline_counterpart(sc: Scenario) -> Scenario | None:
    """A built-in MPC scenario rerun with its case study's baseline controller."""
    if isinstance(sc.controller, BaselineController) or not isinstance(sc.plant, str):
        return None
    _, K_base, _, _ = CASE_STUDIES[sc.plant].loop()
    return dataclasses.replace(
        sc, name=sc.name + "-baseline", controller=BaselineController(K_base))


def _bound_violation(vals, bounds):
    if bounds is None or vals.size == 0:
        return 0.0
    lo, hi = (np.asarray(b, float).ravel() for b in bounds)
    over = np.maximum(vals - hi[None, :], 0.0)
    under = np.maximum(lo[None, :] - vals, 0.0)
    finite = np.isfinite(np.vstack([lo, hi]))
    mask = finite[0] | finite[1]
    return float(np.max(np.where(mask[None, :], np.maximum(over, under), 0.0),
                        initial=0.0))


def cmd_simulate(cfg: ProjectConfig, scenario_name, out_path, seed) -> int:
    if scenario_name is None:
        raise ConfigError("simulate needs --scenario")
    if out_path is None:
        raise ConfigError("simulate needs --out for the CSV trace")
    sc = _resolve_scenario(cfg, scenario_name)
    if seed is not None:
        sc = dataclasses.replace(sc, seed=seed)
    try:
        tr = simulate(sc)
    except NumericalError as exc:
        raise DomainError(f"scenario {scenario_name!r}: {exc}") from None
    except ValueError as exc:  # a bad duration, x0, noise_sigma or bound
        raise ConfigError(f"scenario {scenario_name!r}: {exc}") from None
    tr.to_csv(out_path)

    mpc_cfg = getattr(sc.controller, "config", None)
    summary = {
        "command": "simulate",
        "scenario": scenario_name,
        "steps": len(tr),
        "diverged": tr.diverged,
        "max_constraint_violation": {
            what: _bound_violation(vals, getattr(mpc_cfg, f"{v}_bounds", None))
            for what, v, vals in (("input", "u", tr.u_applied), ("output", "y", tr.y),
                                  ("state", "x", tr.x))
        },
        "max_slack": float(np.max(tr.slack, initial=0.0)),
        "fallback_steps": int(sum(1 for s in tr.qp_status if s == "fallback")),
    }
    is_mpc = [s != "" for s in tr.qp_status]
    if any(is_mpc):
        iters = tr.qp_iters[is_mpc]
        ms = tr.qp_ms[is_mpc]
        summary["qp"] = {
            "mean_iterations": float(np.mean(iters)),
            "max_iterations": int(np.max(iters)),
            "mean_solve_ms": float(np.mean(ms)),
            "max_solve_ms": float(np.max(ms)),
            "warm_start_hits": int(np.count_nonzero(tr.qp_warm[is_mpc])),
        }
    base_sc = _baseline_counterpart(sc)
    if base_sc is not None and len(tr):
        base = simulate(base_sc)
        n = min(len(tr), len(base))
        dev = tr.y[:n] - base.y[:n]
        summary["tracking_rms_vs_baseline"] = float(
            np.sqrt(np.mean(dev * dev)))
    else:
        summary["tracking_rms_vs_baseline"] = None

    _write_json(summary, _summary_path(out_path))
    print(f"{scenario_name}: {len(tr)} steps"
          + (" (diverged)" if tr.diverged else ""))
    return 0


def _summary_path(out_path):
    s = str(out_path)
    return (s[:-4] if s.endswith(".csv") else s) + ".summary.json"


def _verify_one(label, r, G_d, K_d, lines) -> bool:
    """Check realisation r of (G_d, K_d), reading the Riccati residual it
    carries when it has a T."""
    form = _form(r.form)
    resid = verify_equivalence(realisation_controller(r, G_d), K_d)
    ok = resid <= 1e-6
    checks = [f"equivalence residual {resid:.3e}"]
    if r.T.size:
        checks.append(f"riccati residual {r.riccati_residual:.3e}")
        ok = ok and r.riccati_residual <= 1e-6
    gap = form.feedthrough_gap(r.K_c, r.K_f, K_d)
    if gap is not None:
        gap = float(np.max(np.abs(gap)))
        checks.append(f"K_c K_f feedthrough gap {gap:.3e}")
        ok = ok and gap <= 1e-6 * (1.0 + float(np.max(np.abs(K_d.D))))
    # the noise map's state matrix is the observer error dynamics
    stable = spectral_radius(form.noise_system(r, G_d).A) < 1.0
    checks.append("error dynamics stable" if stable else
                  "error dynamics UNSTABLE")
    ok = ok and stable
    lines.append(f"{'PASS' if ok else 'FAIL'} {label}: " + "; ".join(checks))
    return ok


def cmd_verify(cfg: ProjectConfig, out_path) -> int:
    _, _, G_d, K_d = build_problem(cfg)
    lines: list = []
    all_ok = True
    if cfg.verify_gains is not None:
        vg = cfg.verify_gains
        T = np.zeros((0, 0)) if vg["T"] is None else np.array(vg["T"], float)
        K_c, K_f = (np.array(vg[k], float) for k in ("K_c", "K_f"))
        try:  # the form's preconditions, the gains' shapes, then the one
            # Riccati residual of supplied gains
            _form(vg["form"]).check(G_d, K_d)
            n, n_u, n_y = G_d.n, G_d.n_u, G_d.n_y
            for key, names, shape in (("K_c", "n_u x n", (n_u, n)), ("K_f", "n x n_y", (n, n_y)),
                                      ("T", "n_K x n", (K_d.n, n))):
                if vg[key] is not None and np.shape(vg[key]) != shape:
                    raise ValueError(f"{key} must be {names} = {shape}, got {np.shape(vg[key])}")
            r = ObserverRealisation(
                form=vg["form"], T=T,
                T_perp=np.zeros((G_d.n, 0)), X=np.zeros((0, 0)), K_c=K_c, K_f=K_f,
                choice=None, riccati_residual=(
                    riccati_residual(closed_loop_matrix(G_d, K_d), T) if T.size else math.nan),
            )
            all_ok = _verify_one("supplied gains", r, G_d, K_d, lines)
        except ValueError as exc:
            raise ConfigError(f"verify_gains: {exc}") from None
    else:
        found = _run_search(cfg, G_d, K_d)
        for rank, (r, _score) in enumerate(found.ranked, start=1):
            label = f"rank {rank} S={list(r.choice.state_feedback_set)}"
            all_ok = _verify_one(label, r, G_d, K_d, lines) and all_ok
    for line in lines:
        print(line)
    if out_path is not None:
        _write_json({"command": "verify", "passed": bool(all_ok),
                     "checks": lines, "config": _config_echo(cfg)}, out_path)
    if not all_ok:
        raise DomainError("verification failed")
    return 0


def cmd_discretise(cfg: ProjectConfig, out_path) -> int:
    def convert(what):
        spec, Ts = getattr(cfg, what), cfg.Ts
        if isinstance(spec, str):  # a built-in: its continuous source, if any
            case = CASE_STUDIES[spec]
            source = getattr(case, f"{what}_ct")
            spec, Ts = source() if source else getattr(case, what)(), case.Ts
        method, system = _discrete(spec, what, Ts)
        return {"method": method, **_system_json(system)}

    report = {"command": "discretise", "plant": convert("plant"),
              "controller": convert("controller")}
    _write_json(report, out_path)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lti2mpc",
        description="Convert LTI output-feedback controllers into "
                    "observer-based constrained MPC controllers.")
    parser.add_argument("command",
                        choices=["realise", "simulate", "verify", "discretise"])
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--scenario", help="scenario name for simulate")
    parser.add_argument("--out", help="output path (report JSON / trace CSV)")
    parser.add_argument("--seed", type=int, help="override the scenario seed")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.command == "realise":
            return cmd_realise(cfg, args.out)
        if args.command == "simulate":
            return cmd_simulate(cfg, args.scenario, args.out, args.seed)
        if args.command == "verify":
            return cmd_verify(cfg, args.out)
        return cmd_discretise(cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, UnstableSystemError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
