"""Batch front-end: JSON config in, JSON reports and CSV traces out.

Commands
--------
realise     enumerate and rank observer realisations, write a JSON report
simulate    run a named scenario, write a CSV trace plus a JSON summary
verify      check realisation invariants and controller equivalence
discretise  emit the discrete-time plant/controller matrices as JSON

Flags: --config <path>, --scenario <name>, --out <path>, --seed <u64>,
--parallel <n> (accepted and ignored).  Exit codes: 0 success, 1 domain
error (no feasible realisation, unstable loop, unknown scenario, failed
verification), 2 config error (unreadable file, bad JSON, bad
dimensions, unknown keys).

Config schema (all sections optional unless a command needs them):

    {
      "plant": "satellite" | "pendulum" |
               {"kind": "continuous"|"discrete",
                "A": [[...]], "B": [[...]], "C": [[...]], "D": [[...]],
                "Ts": 0.25},
      "controller": same shape as plant,
      "Ts": 0.25,                    # used when discretising matrices
      "pipeline": {"form": "filter"|"predictor", "dipole_W": 50.0,
                   "loop_shift": false, "disturbance_channels": [0],
                   "Qn": 1.0, "Rn": 1e7, "rank_by": "product"|"noise",
                   "margin_cut": 0},
      "mpc": {"N": 15, "cost": "matching"|"effect", "Q1": 1e3, "R1": 1e-3,
              "u_bounds": [[lo...],[hi...]], "y_bounds": ..., "x_bounds": ...,
              "soft_output_weight": 1e5, "tracking": "none"|"reference"},
      "scenarios": {"my-run": {"base": "satellite-case-2", "duration": 20.0,
                               "seed": 7, "noise_sigma": [1e-5]}},
      "verify_gains": {"form": "filter", "K_c": [[...]], "K_f": [[...]],
                       "T": [[...]]}        # optional external gains check
    }

Built-in names select the bundled models along with their standard
pipeline defaults (satellite: filter form with a W=50 dipole, product
ranking; pendulum: predictor form with loop shifting, noise ranking).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from .linalg import UnstableSystemError, spectral_radius
from .models import (
    PENDULUM_TS,
    SATELLITE_TS,
    pendulum_controller,
    pendulum_controller_ct,
    pendulum_plant,
    pendulum_plant_ct,
    satellite_controller,
    satellite_plant,
    satellite_plant_ct,
)
from .mpc import MpcConfig, effect_weight, matching_cost
from .realisation import (
    _FORMS,
    ObserverRealisation,
    _form,
    closed_loop_matrix,
    riccati_residual,
    search_realisations,
    verify_equivalence,
)
from .sim import (
    _FAMILIES,
    BaselineController,
    MpcController,
    Scenario,
    scenario_library,
    simulate,
)
from .statespace import (
    CtStateSpace,
    DtStateSpace,
    add_dipole,
    augment_disturbances,
    c2d_tustin,
    c2d_zoh,
    loop_shift,
)

__all__ = ["ConfigError", "DomainError", "load_config", "main"]


class ConfigError(ValueError):
    """Unusable configuration: exit code 2."""


class DomainError(RuntimeError):
    """Well-formed request that cannot be satisfied: exit code 1."""


_PIPELINE_KEYS = {"form", "dipole_W", "loop_shift", "disturbance_channels",
                  "Qn", "Rn", "rank_by", "margin_cut", "forced_S"}
_MPC_KEYS = {"N", "cost", "W", "Q1", "R1", "u_bounds", "y_bounds", "x_bounds",
             "soft_output_weight", "tracking"}
_TOP_KEYS = {"plant", "controller", "Ts", "pipeline", "mpc", "scenarios",
             "verify_gains"}

_BUILTIN_PIPELINE = {
    "satellite": {"form": "filter", "dipole_W": 50.0, "loop_shift": False,
                  "rank_by": "product", "margin_cut": 0},
    "pendulum": {"form": "predictor", "dipole_W": None, "loop_shift": True,
                 "rank_by": "noise", "margin_cut": 0},
}


def _matrix(obj, name) -> np.ndarray:
    try:
        M = np.array(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} is not a numeric matrix: {exc}") from None
    if M.ndim != 2:
        raise ConfigError(f"{name} must be two dimensional")
    return M


def _parse_system(obj, what):
    """Return a builtin name or a state-space object."""
    if isinstance(obj, str):
        if obj not in ("satellite", "pendulum"):
            raise ConfigError(f"unknown built-in {what} {obj!r}")
        return obj
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} must be a name or a matrix object")
    kind = obj.get("kind", "discrete")
    if kind not in ("continuous", "discrete"):
        raise ConfigError(f"{what}.kind must be 'continuous' or 'discrete'")
    missing = [k for k in ("A", "B", "C", "D") if k not in obj]
    if missing:
        raise ConfigError(f"{what} is missing matrices {missing}")
    A = _matrix(obj["A"], f"{what}.A")
    B = _matrix(obj["B"], f"{what}.B")
    C = _matrix(obj["C"], f"{what}.C")
    D = _matrix(obj["D"], f"{what}.D")
    try:
        if kind == "continuous":
            return CtStateSpace(A, B, C, D)
        Ts = float(obj.get("Ts", 0.0))
        if Ts <= 0.0:
            raise ConfigError(f"discrete {what} needs a positive Ts")
        return DtStateSpace(A, B, C, D, Ts)
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from None


@dataclasses.dataclass
class ProjectConfig:
    plant: object
    controller: object
    Ts: float | None
    pipeline: dict
    mpc: dict
    scenarios: dict
    verify_gains: dict | None


def parse_config(raw: dict) -> ProjectConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys {sorted(unknown)}")
    if "plant" not in raw:
        raise ConfigError("config needs a 'plant'")
    plant = _parse_system(raw["plant"], "plant")
    controller = raw.get("controller", plant if isinstance(plant, str) else None)
    if controller is None:
        raise ConfigError("config needs a 'controller'")
    controller = _parse_system(controller, "controller")

    pipeline = dict(raw.get("pipeline", {}))
    unknown = set(pipeline) - _PIPELINE_KEYS
    if unknown:
        raise ConfigError(f"unknown pipeline keys {sorted(unknown)}")
    base = _BUILTIN_PIPELINE.get(plant if isinstance(plant, str) else "", {})
    merged = {"form": "filter", "dipole_W": None, "loop_shift": False,
              "disturbance_channels": None, "Qn": 1.0, "Rn": 1e7,
              "rank_by": "product", "margin_cut": None, "forced_S": None}
    merged.update(base)
    merged.update(pipeline)
    if merged["form"] not in _FORMS:
        raise ConfigError("pipeline.form must be 'filter' or 'predictor'")
    if merged["rank_by"] not in ("product", "noise"):
        raise ConfigError("pipeline.rank_by must be 'product' or 'noise'")

    mpc = dict(raw.get("mpc", {}))
    unknown = set(mpc) - _MPC_KEYS
    if unknown:
        raise ConfigError(f"unknown mpc keys {sorted(unknown)}")

    scenarios = raw.get("scenarios", {})
    if not isinstance(scenarios, dict):
        raise ConfigError("scenarios must be an object of named entries")

    vg = raw.get("verify_gains")
    if vg is not None:
        if not isinstance(vg, dict):
            raise ConfigError("verify_gains must be an object")
        if vg.get("form", merged["form"]) not in _FORMS:
            raise ConfigError("verify_gains.form must be 'filter' or 'predictor'")

    return ProjectConfig(
        plant=plant, controller=controller,
        Ts=float(raw["Ts"]) if "Ts" in raw else None,
        pipeline=merged, mpc=mpc, scenarios=scenarios, verify_gains=vg,
    )


def load_config(path) -> ProjectConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    return parse_config(raw)


def _resolve_plant(cfg: ProjectConfig) -> DtStateSpace:
    p = cfg.plant
    if p == "satellite":
        return satellite_plant()
    if p == "pendulum":
        return pendulum_plant()
    if isinstance(p, CtStateSpace):
        Ts = cfg.Ts
        if Ts is None:
            raise ConfigError("continuous plant needs a top-level Ts")
        p = c2d_zoh(p, Ts)
    channels = cfg.pipeline.get("disturbance_channels")
    if channels:
        p = augment_disturbances(p, tuple(channels))
    return p


def _resolve_controller(cfg: ProjectConfig) -> DtStateSpace:
    k = cfg.controller
    if k == "satellite":
        return satellite_controller()
    if k == "pendulum":
        return pendulum_controller()
    if isinstance(k, CtStateSpace):
        Ts = cfg.Ts
        if Ts is None:
            raise ConfigError("continuous controller needs a top-level Ts")
        k = c2d_tustin(k, Ts)
    return k


def build_problem(cfg: ProjectConfig):
    """Resolve (truth plant, original controller, design plant, design
    controller) after dipole/loop-shift conditioning."""
    G = _resolve_plant(cfg)
    K0 = _resolve_controller(cfg)
    if G.Ts != K0.Ts:
        raise ConfigError(
            f"plant Ts {G.Ts} and controller Ts {K0.Ts} differ")
    pl = cfg.pipeline
    if pl["loop_shift"] and pl["dipole_W"]:
        raise ConfigError("choose either loop_shift or dipole_W, not both")
    if pl["loop_shift"]:
        G_d, K_d = loop_shift(G, K0)
    elif pl["dipole_W"]:
        G_d, K_d = G, add_dipole(K0, W=float(pl["dipole_W"]))
    else:
        G_d, K_d = G, K0
    return G, K0, G_d, K_d


def _mpc_config(cfg: ProjectConfig, G_d: DtStateSpace, K_c) -> MpcConfig:
    m = cfg.mpc
    kind = m.get("cost", "matching")
    if kind == "matching":
        W = m.get("W")
        cost = matching_cost(K_c, None if W is None else _matrix(W, "mpc.W"))
    elif kind == "effect":
        cost = matching_cost(
            K_c, effect_weight(G_d, float(m.get("Q1", 1e3)),
                               float(m.get("R1", 1e-3))))
    else:
        raise ConfigError("mpc.cost must be 'matching' or 'effect'")
    bounds = {}
    for key in ("u_bounds", "y_bounds", "x_bounds"):
        v = m.get(key)
        if v is not None:
            if (not isinstance(v, (list, tuple))) or len(v) != 2:
                raise ConfigError(f"mpc.{key} must be [lower, upper]")
            bounds[key] = (np.asarray(v[0], float), np.asarray(v[1], float))
        else:
            bounds[key] = None
    try:
        return MpcConfig(
            N=int(m.get("N", 15)), cost=cost,
            u_bounds=bounds["u_bounds"], y_bounds=bounds["y_bounds"],
            x_bounds=bounds["x_bounds"],
            soft_output_weight=float(m.get("soft_output_weight", 1e5)),
            tracking=m.get("tracking", "none"),
        )
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
           "pipeline": cfg.pipeline, "mpc": cfg.mpc,
           "scenarios": cfg.scenarios}
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
    pl = cfg.pipeline
    A_cl = closed_loop_matrix(G_d, K_d)
    rho = spectral_radius(A_cl)
    # poles exactly on the circle are legitimate (disturbance integrators
    # are uncontrollable closed-loop modes at z = 1); reject strict growth
    if rho > 1.0 + 1e-9:
        raise DomainError(
            "the closed loop of the supplied plant and controller is "
            f"unstable (spectral radius {rho:.4f}); realisation requires "
            "a stabilising controller")
    forced = pl["forced_S"]
    return search_realisations(
        G_d, K_d, form=pl["form"],
        forced_S=None if forced is None else tuple(forced),
        Qn=float(pl["Qn"]), Rn=float(pl["Rn"]), rank_by=pl["rank_by"],
        margin_cut=pl["margin_cut"],
    )


def cmd_realise(cfg: ProjectConfig, out_path) -> int:
    G, K0, G_d, K_d = build_problem(cfg)
    found = _run_search(cfg, G_d, K_d)
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
            "error_poles": _poles_json(_form(r.form).noise_system(r, G_d, K_d).A),
            "K_c": r.K_c.tolist(),
            "K_f": r.K_f.tolist(),
            "T": r.T.tolist(),
        }
        if score.margins is not None:
            row["margins"] = {
                "gain": score.margins.gain_margin,
                "phase": score.margins.phase_margin,
                "delay_samples": score.margins.delay_margin,
            }
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
    if not found.ranked:
        raise DomainError("no feasible realisation for any eigenvalue split")
    return 0


def _custom_scenario(cfg: ProjectConfig, name: str, spec: dict) -> Scenario:
    """MPC loop on the config's own plant/controller (regulation only)."""
    if "duration" not in spec:
        raise ConfigError(f"custom scenario {name!r} needs a 'duration'")
    G, K0, G_d, K_d = build_problem(cfg)
    found = _run_search(cfg, G_d, K_d)
    if not found.ranked:
        raise DomainError(f"custom scenario {name!r}: no feasible realisation")
    real = found.ranked[0][0]
    ctrl = MpcController(
        realisation=real, design_model=G_d,
        config=_mpc_config(cfg, G_d, real.K_c),
        D_K=K0.D if cfg.pipeline["loop_shift"] else None,
    )
    return Scenario(
        name=name, plant=G, duration=float(spec["duration"]), controller=ctrl,
        seed=int(spec.get("seed", 0)),
        x0=None if "x0" not in spec else np.asarray(spec["x0"], float),
        noise_sigma=(None if "noise_sigma" not in spec
                     else np.asarray(spec["noise_sigma"], float)),
    )


def _library_scenario(name: str) -> Scenario | None:
    """The library scenario ``name`` or None, building only its plant's family."""
    family = name.split("-")[0]
    return scenario_library(family).get(name) if family in _FAMILIES else None


def _resolve_scenario(cfg: ProjectConfig, name: str) -> Scenario:
    spec = cfg.scenarios.get(name)
    if spec is None:
        sc = _library_scenario(name)
        if sc is None:
            raise DomainError(f"unknown scenario {name!r}")
        return sc
    if not isinstance(spec, dict):
        raise ConfigError(f"scenario {name!r} must be an object")
    unknown = set(spec) - {"base", "duration", "seed", "noise_sigma", "x0"}
    if unknown:
        raise ConfigError(f"scenario {name!r}: unknown keys {sorted(unknown)}")
    base = spec.get("base")
    if base is None:
        return _custom_scenario(cfg, name, spec)
    sc = _library_scenario(str(base))
    if sc is None:
        raise DomainError(f"scenario {name!r}: unknown base {base!r}")
    overrides = {}
    if "duration" in spec:
        overrides["duration"] = float(spec["duration"])
    if "seed" in spec:
        overrides["seed"] = int(spec["seed"])
    if "noise_sigma" in spec:
        overrides["noise_sigma"] = np.asarray(spec["noise_sigma"], float)
    if "x0" in spec:
        overrides["x0"] = np.asarray(spec["x0"], float)
    return dataclasses.replace(sc, name=name, **overrides)


def _baseline_counterpart(sc: Scenario) -> Scenario | None:
    if isinstance(sc.controller, BaselineController):
        return None
    if sc.plant == "satellite":
        K = add_dipole(satellite_controller(), W=50.0)
    elif sc.plant == "pendulum":
        K = pendulum_controller()
    else:
        return None
    return dataclasses.replace(
        sc, name=sc.name + "-baseline", controller=BaselineController(K))


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
        sc = dataclasses.replace(sc, seed=int(seed))
    tr = simulate(sc)
    tr.to_csv(out_path)

    mpc_cfg = getattr(sc.controller, "config", None)
    summary = {
        "command": "simulate",
        "scenario": scenario_name,
        "steps": len(tr),
        "diverged": tr.diverged,
        "max_constraint_violation": {
            "input": _bound_violation(
                tr.u_applied, None if mpc_cfg is None else mpc_cfg.u_bounds),
            "output": _bound_violation(
                tr.y, None if mpc_cfg is None else mpc_cfg.y_bounds),
            "state": _bound_violation(
                tr.x, None if mpc_cfg is None else mpc_cfg.x_bounds),
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
    if s.endswith(".csv"):
        return s[:-4] + ".summary.json"
    return s + ".summary.json"


def _verify_one(label, r, G_d, K_d, lines) -> bool:
    form = _form(r.form)
    resid = verify_equivalence(form.controller(r, G_d, K_d), K_d)
    ok = resid <= 1e-6
    checks = [f"equivalence residual {resid:.3e}"]
    if r.T is not None and r.T.size:
        rres = riccati_residual(closed_loop_matrix(G_d, K_d), r.T)
        checks.append(f"riccati residual {rres:.3e}")
        ok = ok and rres <= 1e-6
    gap = form.feedthrough_gap(r.K_c, r.K_f, K_d)
    if gap is not None:
        gap = float(np.max(np.abs(gap)))
        checks.append(f"K_c K_f feedthrough gap {gap:.3e}")
        ok = ok and gap <= 1e-6 * (1.0 + float(np.max(np.abs(K_d.D))))
    # the noise map's state matrix is the observer error dynamics
    stable = spectral_radius(form.noise_system(r, G_d, K_d).A) < 1.0
    checks.append("error dynamics stable" if stable else
                  "error dynamics UNSTABLE")
    ok = ok and stable
    lines.append(f"{'PASS' if ok else 'FAIL'} {label}: " + "; ".join(checks))
    return ok


def cmd_verify(cfg: ProjectConfig, out_path) -> int:
    G, K0, G_d, K_d = build_problem(cfg)
    lines: list = []
    all_ok = True
    if cfg.verify_gains is not None:
        vg = cfg.verify_gains
        try:
            r = ObserverRealisation(
                form=vg.get("form", cfg.pipeline["form"]),
                T=_matrix(vg["T"], "verify_gains.T") if "T" in vg else np.zeros((0, 0)),
                T_perp=np.zeros((G_d.n, 0)), X=np.zeros((0, 0)),
                K_c=_matrix(vg["K_c"], "verify_gains.K_c"),
                K_f=_matrix(vg["K_f"], "verify_gains.K_f"),
                choice=None, riccati_residual=float("nan"),
            )
        except KeyError as exc:
            raise ConfigError(f"verify_gains is missing {exc}") from None
        all_ok = _verify_one("supplied gains", r, G_d, K_d, lines)
    else:
        found = _run_search(cfg, G_d, K_d)
        if not found.ranked:
            raise DomainError("no feasible realisation to verify")
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
    def convert(spec, what, how, Ts_default):
        if spec == "satellite":
            sys_ct = satellite_plant_ct() if what == "plant" else None
            if sys_ct is None:
                return {"method": "none",
                        **_system_json(satellite_controller())}
            return {"method": "zoh",
                    **_system_json(c2d_zoh(sys_ct, cfg.Ts or SATELLITE_TS))}
        if spec == "pendulum":
            if what == "plant":
                return {"method": "zoh",
                        **_system_json(c2d_zoh(pendulum_plant_ct(),
                                               cfg.Ts or PENDULUM_TS))}
            return {"method": "tustin",
                    **_system_json(c2d_tustin(pendulum_controller_ct(),
                                              cfg.Ts or PENDULUM_TS))}
        if isinstance(spec, CtStateSpace):
            if cfg.Ts is None:
                raise ConfigError(f"continuous {what} needs a top-level Ts")
            conv = c2d_zoh if how == "zoh" else c2d_tustin
            return {"method": how, **_system_json(conv(spec, cfg.Ts))}
        return {"method": "none", **_system_json(spec)}

    report = {
        "command": "discretise",
        "plant": convert(cfg.plant, "plant", "zoh", None),
        "controller": convert(cfg.controller, "controller", "tustin", None),
    }
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
    parser.add_argument("--parallel", type=int,
                        help="accepted and ignored: the realisation search "
                             "runs as stacked kernels in one process")
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
