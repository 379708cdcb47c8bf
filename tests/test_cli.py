"""Command-line front end: configs, reports, traces, exit codes."""

import csv
import json
import subprocess
import sys

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg

from conftest import with_narrow_resonance
from lti2mpc import cli, realisation
from lti2mpc.cli import main, parse_config, build_problem, ConfigError, _baseline_counterpart
from lti2mpc.linalg import NumericalError
from lti2mpc.models import CASE_STUDIES, pendulum_controller, pendulum_plant
from lti2mpc.realisation import search_realisations
from lti2mpc.sim import scenario_library
from lti2mpc.statespace import DtStateSpace, add_dipole, c2d_zoh, loop_shift
from lti2mpc.models import satellite_controller, satellite_plant, satellite_plant_ct


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_builtin_satellite_realise_report(tmp_path):
    cfg = _write(tmp_path, "sat.json", {"plant": "satellite"})
    out = tmp_path / "report.json"
    assert main(["realise", "--config", cfg, "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["feasible"] == 4
    assert rep["form"] == "filter"
    rows = rep["realisations"]
    assert rows[0]["S"] == [0, 4, 5]
    assert rows[0]["rank"] == 1
    npt.assert_allclose(rows[0]["h2_noise"], 0.6308, rtol=2e-3)
    npt.assert_allclose(rows[0]["margins"]["gain"], 2.012, rtol=2e-3)
    # every row carries the gains and the report is valid JSON throughout
    for row in rows:
        assert np.asarray(row["K_f"]).shape == (3, 1)
        assert np.asarray(row["K_c"]).shape == (2, 3)
        assert row["riccati_residual"] < 1e-8


def test_builtin_pendulum_realise_report(tmp_path):
    cfg = _write(tmp_path, "pend.json", {"plant": "pendulum"})
    out = tmp_path / "report.json"
    assert main(["realise", "--config", cfg, "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["feasible"] == 3
    assert rep["form"] == "predictor"
    assert rep["rank_by"] == "noise"
    assert rep["realisations"][0]["S"] == [2, 3, 4, 5]


def test_realise_rejects_an_unstabilising_controller(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.json", {
        "plant": {"kind": "discrete", "A": [[1.1]], "B": [[1.0]],
                  "C": [[1.0]], "D": [[0.0]], "Ts": 1.0},
        "controller": {"kind": "discrete", "A": [[0.0]], "B": [[1.0]],
                       "C": [[0.0]], "D": [[0.0]], "Ts": 1.0},
    })
    assert main(["realise", "--config", cfg]) == 1
    assert "unstable" in capsys.readouterr().err


def test_config_errors_exit_2(tmp_path, capsys):
    # missing file
    assert main(["realise", "--config", str(tmp_path / "nope.json")]) == 2
    # invalid JSON
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["realise", "--config", str(bad)]) == 2
    # unknown top-level key
    cfg = _write(tmp_path, "k.json", {"plant": "satellite", "plnat": 1})
    assert main(["realise", "--config", cfg]) == 2
    # dimension mismatch inside a matrix system
    cfg = _write(tmp_path, "dims.json", {
        "plant": {"kind": "discrete", "A": [[1.0, 0.0]], "B": [[1.0]],
                  "C": [[1.0]], "D": [[0.0]], "Ts": 1.0}})
    assert main(["realise", "--config", cfg]) == 2
    # an unknown form for externally supplied gains
    cfg = _write(tmp_path, "vg.json", {
        "plant": "satellite",
        "verify_gains": {"form": "bogus", "K_c": [[0.0]], "K_f": [[0.0]]}})
    assert main(["verify", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert "verify_gains.form" in err


def test_simulate_writes_trace_and_summary(tmp_path):
    cfg = _write(tmp_path, "sat.json", {
        "plant": "satellite",
        "scenarios": {"short": {"base": "satellite-case-2", "duration": 5.0}},
    })
    out = tmp_path / "trace.csv"
    assert main(["simulate", "--config", cfg, "--scenario", "short",
                 "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:4] == ["t", "y.0", "u.0", "u.1"]
    assert len(rows) == 21  # 5 s at Ts = 0.25 plus the header
    summary = json.loads((tmp_path / "trace.summary.json").read_text())
    assert summary["scenario"] == "short"
    assert summary["steps"] == 20
    assert summary["max_constraint_violation"]["input"] <= 1e-7
    assert "mean_iterations" in summary["qp"]
    assert 0 < summary["qp"]["warm_start_hits"] < 20  # the bound binds from step 8
    # steps served by the previous set's law: every warm-start hit and the
    # unconstrained steps before the bound binds
    assert summary["qp"]["warm_start_hits"] < summary["qp"]["law_hits"] < 20
    assert summary["tracking_rms_vs_baseline"] is not None


def test_simulate_unknown_scenario_is_a_domain_error(tmp_path, capsys):
    cfg = _write(tmp_path, "sat.json", {"plant": "satellite"})
    out = tmp_path / "t.csv"
    assert main(["simulate", "--config", cfg, "--scenario", "nope",
                 "--out", str(out)]) == 1
    assert "unknown scenario" in capsys.readouterr().err


def test_simulate_zero_duration_writes_header_only(tmp_path):
    cfg = _write(tmp_path, "sat.json", {
        "plant": "satellite",
        "scenarios": {"empty": {"base": "satellite-case-1", "duration": 0.0}},
    })
    out = tmp_path / "empty.csv"
    assert main(["simulate", "--config", cfg, "--scenario", "empty",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("t,y.0,")
    # an MPC that takes no step has no QP counters to summarise
    assert "qp" not in json.loads((tmp_path / "empty.summary.json").read_text())


def test_a_baseline_run_reports_no_qp_counters(tmp_path):
    cfg = _write(tmp_path, "sat.json", {
        "plant": "satellite",
        "scenarios": {"base": {"base": "satellite-baseline", "duration": 5.0}},
    })
    out = tmp_path / "base.csv"
    assert main(["simulate", "--config", cfg, "--scenario", "base", "--out", str(out)]) == 0
    summary = json.loads((tmp_path / "base.summary.json").read_text())
    assert summary["steps"] == 20 and summary["fallback_steps"] == 0
    assert "qp" not in summary and summary["tracking_rms_vs_baseline"] is None


def test_seed_flag_controls_noise_reproducibility(tmp_path):
    cfg = _write(tmp_path, "sat.json", {
        "plant": "satellite",
        "scenarios": {"noisy": {"base": "satellite-case-1", "duration": 5.0,
                                "noise_sigma": [1e-5]}},
    })
    outs = []
    for tag, seed in (("a", "7"), ("b", "7"), ("c", "8")):
        out = tmp_path / f"{tag}.csv"
        assert main(["simulate", "--config", cfg, "--scenario", "noisy",
                     "--out", str(out), "--seed", seed]) == 0
        outs.append(out.read_text())
    assert outs[0] == outs[1]
    assert outs[0] != outs[2]


def test_verify_passes_the_builtin_realisations(tmp_path, capsys):
    cfg = _write(tmp_path, "sat.json", {"plant": "satellite"})
    assert main(["verify", "--config", cfg]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l]
    assert len(lines) == 4
    assert all(l.startswith("PASS") for l in lines)
    assert all("equivalence residual" in l for l in lines)


def test_verify_flags_perturbed_gains(tmp_path, capsys):
    G = satellite_plant()
    K1 = add_dipole(satellite_controller(), W=50.0)
    real = search_realisations(G, K1, form="filter").ranked[0][0]
    cfg = _write(tmp_path, "sat.json", {
        "plant": "satellite",
        "verify_gains": {"form": "filter",
                         "K_c": real.K_c.tolist(),
                         "K_f": (1.01 * real.K_f).tolist(),
                         "T": real.T.tolist()},
    })
    out = tmp_path / "verify.json"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
    printed = capsys.readouterr().out
    assert "FAIL" in printed
    assert "equivalence residual" in printed
    rep = json.loads(out.read_text())
    assert rep["passed"] is False


def test_verify_flags_gains_whose_error_dynamics_are_unstable(tmp_path, capsys):
    # five times the filter gain puts an error pole at 1.91
    G = satellite_plant()
    K1 = add_dipole(satellite_controller(), W=50.0)
    real = search_realisations(G, K1, form="filter").ranked[0][0]
    cfg = _write(tmp_path, "sat.json", {
        "plant": "satellite",
        "verify_gains": {"form": "filter", "K_c": real.K_c.tolist(),
                         "K_f": (5.0 * real.K_f).tolist(), "T": real.T.tolist()},
    })
    assert main(["verify", "--config", cfg]) == 1
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("FAIL supplied gains: ")
    assert lines[0].endswith("; error dynamics UNSTABLE")
    assert captured.err == "error: verification failed\n"


def test_verify_fails_gains_whose_responses_overflow(tmp_path, capsys):
    # K_obs = (0.5, 1e200, -1e200, 0) against K = (0.5, 1e200, 1e200, 0):
    # both responses overflow, so the deviation is not a number
    cfg = _write(tmp_path, "big.json", {
        "plant": {"kind": "discrete", "A": [[0.5]], "B": [[0.0]], "C": [[0.0]],
                  "D": [[0.0]], "Ts": 1.0},
        "controller": {"kind": "discrete", "A": [[0.5]], "B": [[1e200]],
                       "C": [[1e200]], "D": [[0.0]], "Ts": 1.0},
        "pipeline": {"form": "predictor"},
        "verify_gains": {"K_c": [[-1e200]], "K_f": [[1e200]]},
    })
    out = tmp_path / "verify.json"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
    printed = capsys.readouterr().out
    assert printed.startswith("FAIL supplied gains: equivalence residual inf")
    assert json.loads(out.read_text())["passed"] is False


def _rank_1_gains(name, K_f_scale=1.0):
    """verify_gains of a case study's rank-1 realisation, without its T."""
    case = CASE_STUDIES[name]
    _, _, G, K = case.loop()
    r = search_realisations(G, K, form=case.form, rank_by=case.rank_by).ranked[0][0]
    return {"K_c": r.K_c.tolist(), "K_f": (K_f_scale * r.K_f).tolist(), "T": None}


@pytest.mark.parametrize("name", ["satellite", "pendulum"])
@pytest.mark.parametrize("K_f_scale, code, verdict", [(1.0, 0, "PASS"), (1.0 + 1e-4, 1, "FAIL")])
def test_verify_recovers_T_of_gains_supplied_without_one(tmp_path, capsys, name, K_f_scale,
                                                         code, verdict):
    cfg = _write(tmp_path, "vg.json", {"plant": name,
                                       "verify_gains": _rank_1_gains(name, K_f_scale)})
    assert main(["verify", "--config", cfg]) == code
    (line,) = capsys.readouterr().out.splitlines()
    assert line.startswith(f"{verdict} supplied gains: equivalence residual ")
    assert line.endswith("; error dynamics stable") and "riccati" not in line


def test_verify_refuses_gains_without_T_against_an_unobservable_baseline(tmp_path, capsys):
    # the pendulum baseline with a state its outputs never see: O_K has a zero column
    K = pendulum_controller()
    K = DtStateSpace(scipy.linalg.block_diag(K.A, 0.5), np.vstack([K.B, np.ones((1, K.n_u))]),
                     np.hstack([K.C, np.zeros((K.n_y, 1))]), K.D, K.Ts)
    cfg = _write(tmp_path, "vg.json", {"plant": "pendulum", "controller": cli._system_json(K),
                                       "verify_gains": _rank_1_gains("pendulum")})
    assert main(["verify", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "config error: verify_gains: the baseline controller's observability matrix O_K over 4 "
        "steps has numerical rank below n_K = 3 (cond_2 above 1e+08), so the gains do not "
        "determine T\n")


def test_verify_fails_gains_against_a_baseline_with_a_resonance_between_grid_points(tmp_path,
                                                                                  capsys):
    # the pendulum baseline plus a narrow resonance that a frequency grid
    # misses (see test_realisation.py): its rank-1 gains no longer realise it
    K, _ = with_narrow_resonance(pendulum_controller(), 1e-2, 3.5e-5)
    cfg = _write(tmp_path, "vg.json", {"plant": "pendulum", "controller": cli._system_json(K),
                                       "verify_gains": _rank_1_gains("pendulum")})
    assert main(["verify", "--config", cfg]) == 1
    (line,) = capsys.readouterr().out.splitlines()
    assert line.startswith("FAIL supplied gains: equivalence residual ")
    assert float(line.split()[5].rstrip(";")) > 1e-6


def test_simulate_runs_only_the_scenario_family_search(tmp_path, monkeypatch):
    import lti2mpc.sim as sim

    searches = []
    search = sim.search_realisations
    monkeypatch.setattr(sim, "search_realisations",
                        lambda *a, **kw: searches.append(kw["form"]) or search(*a, **kw))
    cfg = _write(tmp_path, "sat.json", {"plant": "satellite"})
    out = tmp_path / "case1.csv"
    assert main(["simulate", "--config", cfg, "--scenario", "satellite-case-1",
                 "--out", str(out)]) == 0
    assert searches == ["filter"]  # the satellite search alone


def test_discretise_builtin_pendulum_matches_the_bundled_models(tmp_path):
    cfg = _write(tmp_path, "pend.json", {"plant": "pendulum"})
    out = tmp_path / "disc.json"
    assert main(["discretise", "--config", cfg, "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    K = pendulum_controller()
    G = pendulum_plant()
    assert rep["controller"]["method"] == "tustin"
    npt.assert_allclose(rep["controller"]["A"], K.A, atol=1e-14)
    npt.assert_allclose(rep["controller"]["D"], K.D, atol=1e-14)
    assert rep["plant"]["method"] == "zoh"
    npt.assert_allclose(rep["plant"]["A"], G.A, atol=1e-14)
    assert rep["plant"]["Ts"] == 0.1


def test_discretise_builtin_satellite_matches_the_bundled_models(tmp_path):
    cfg = _write(tmp_path, "sat.json", {"plant": "satellite"})
    out = tmp_path / "disc.json"
    assert main(["discretise", "--config", cfg, "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    # the plant is the ZOH of the rigid body, without the disturbance state
    G = c2d_zoh(satellite_plant_ct(), 0.25)
    assert rep["plant"]["method"] == "zoh" and rep["plant"]["Ts"] == 0.25
    for m in "ABCD":
        npt.assert_array_equal(rep["plant"][m], getattr(G, m))
    npt.assert_array_equal(rep["plant"]["A"], satellite_plant().A[:2, :2])
    # the controller is discrete by design
    K = satellite_controller()
    assert rep["controller"]["method"] == "none" and rep["controller"]["Ts"] == 0.25
    for m in "ABCD":
        npt.assert_array_equal(rep["controller"][m], getattr(K, m))


def test_builtin_with_another_top_level_Ts_is_a_config_error(tmp_path, capsys):
    cfg = _write(tmp_path, "sat.json", {"plant": "satellite", "Ts": 0.5})
    for command in ("realise", "discretise"):
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: built-in plant 'satellite' runs at Ts 0.25")
    cfg = _write(tmp_path, "sat.json", {"plant": "satellite", "Ts": 0.25})
    assert main(["discretise", "--config", cfg, "--out", str(tmp_path / "o.json")]) == 0


@pytest.mark.parametrize("doc, code, prefix", [
    ({"plant": "satellite", "pipeline": {"margin_cut": 5}}, 2,
     "config error: pipeline.margin_cut: cut_input 5 is not an input channel"),
    # the satellite's second input is its disturbance channel, which K_c never drives
    ({"plant": "satellite", "pipeline": {"margin_cut": 1}}, 2,
     "config error: pipeline.margin_cut: cut_input 1 is an input the controller never drives"),
    ({"plant": "satellite", "pipeline": {"forced_S": [99]}}, 2, "config error: "),
    # loops their form's preconditions refuse, before any split is solved
    ({"plant": "satellite", "pipeline": {"form": "predictor"}}, 2,
     "config error: predictor form needs a strictly proper controller"),
    ({"plant": "pendulum", "pipeline": {"form": "filter", "loop_shift": False}}, 2,
     "config error: filter form needs"),
    ({"plant": "satellite", "pipeline": {"forced_S": 5}}, 2, "config error: "),
    ({"plant": "satellite", "pipeline": {"margin_cut": "a"}}, 2, "config error: "),
    # a built-in's disturbance model is its case study's, not the config's
    ({"plant": "satellite", "pipeline": {"disturbance_channels": [9]}}, 2, "config error: "),
    # a channel that is not an input of a matrix plant
    ({"plant": {"kind": "discrete", "A": [[0.5]], "B": [[1.0]], "C": [[1.0]], "D": [[0.0]],
                "Ts": 1.0},
      "controller": {"kind": "discrete", "A": [[0.3]], "B": [[0.2]], "C": [[0.1]],
                     "D": [[0.0]], "Ts": 1.0},
      "pipeline": {"disturbance_channels": [9]}},
     2, "config error: disturbance channel 9 names no input of n_u = 1"),
    # a continuous loop discretised at a negative top-level Ts
    ({"plant": {"kind": "continuous", "A": [[0.0]], "B": [[1.0]], "C": [[1.0]], "D": [[0.0]]},
      "controller": {"kind": "continuous", "A": [[-1.0]], "B": [[1.0]], "C": [[-1.0]],
                     "D": [[-1.0]]},
      "Ts": -0.1},
     2, "config error: plant: Ts must be positive"),
    # a value of the wrong type, or a section that is not an object
    ({"plant": "satellite", "pipeline": {"dipole_W": [1]}}, 2,
     "config error: pipeline.dipole_W must be a number"),
    ({"plant": "satellite", "pipeline": [1]}, 2, "config error: pipeline must be an object"),
    ({"plant": "satellite", "pipeline": {"loop_shift": "no"}}, 2,
     "config error: pipeline.loop_shift must be true or false"),
    ({"plant": "satellite", "Ts": True}, 2, "config error: config.Ts must be a number"),
    ({"plant": "satellite", "pipeline": {"rank_by": "best"}}, 2, "config error: pipeline.rank_by"),
    ({"plant": "satellite", "pipeline": {"Qn": "a"}}, 2, "config error: pipeline.Qn"),
    # a JSON number that is not a float: NaN, or an integer beyond float range
    ({"plant": "satellite", "pipeline": {"Qn": 10**400}}, 2,
     "config error: pipeline.Qn is too large for a float"),
    ({"plant": "satellite", "pipeline": {"dipole_W": float("nan")}}, 2,
     "config error: pipeline.dipole_W must be a number, not NaN"),
    # noise covariances the Kalman design cannot use, with free observer
    # poles (pendulum) and without (satellite)
    ({"plant": "pendulum", "pipeline": {"Qn": -1}}, 2,
     "config error: Qn must be positive semidefinite"),
    ({"plant": "satellite", "pipeline": {"Qn": -1}}, 2,
     "config error: Qn must be positive semidefinite"),
    ({"plant": "pendulum", "pipeline": {"Qn": float("inf")}}, 2, "config error: Qn must be finite"),
    ({"plant": "pendulum", "pipeline": {"Rn": 0}}, 2, "config error: Rn must be positive definite"),
    ({"plant": "satellite", "pipeline": {"Rn": float("-inf")}}, 2, "config error: Rn must be finite"),
    # an infinite Ts: on a discrete system, and as the top-level Ts that a
    # continuous loop is discretised at
    ({"plant": {"kind": "discrete", "A": [[0.5]], "B": [[1.0]], "C": [[1.0]], "D": [[0.0]],
                "Ts": float("inf")},
      "controller": {"kind": "discrete", "A": [[0.3]], "B": [[0.2]], "C": [[0.1]],
                     "D": [[0.0]], "Ts": float("inf")},
      "pipeline": {"form": "predictor", "margin_cut": 0}},
     2, "config error: plant: Ts must be positive and finite, not inf"),
    ({"plant": {"kind": "continuous", "A": [[0.0]], "B": [[1.0]], "C": [[1.0]], "D": [[0.0]]},
      "controller": {"kind": "continuous", "A": [[-1.0]], "B": [[1.0]], "C": [[-1.0]],
                     "D": [[-1.0]]},
      "Ts": float("inf")},
     2, "config error: plant: Ts must be positive and finite, not inf"),
    ({"plant": "satellite", "pipeline": {"dipole_W": float("inf")}}, 2,
     "config error: dipole W must be finite and at least 10, not inf"),
    # a dipole W of 0 is refused like any W < 10, not taken as "no dipole"
    ({"plant": "satellite", "pipeline": {"dipole_W": 0}}, 2,
     "config error: dipole W must be finite and at least 10, not 0.0"),
    ({"plant": "pendulum", "pipeline": {"dipole_W": 0}}, 2,
     "config error: choose either loop_shift or dipole_W, not both"),
    # a closed loop that is one conjugate pair, which n = 1 cannot hold whole
    ({"plant": {"kind": "discrete", "A": [[0.5]], "B": [[1.0]], "C": [[1.0]], "D": [[0.0]],
                "Ts": 1.0},
      "controller": {"kind": "discrete", "A": [[0.5]], "B": [[1.0]], "C": [[-0.1]],
                     "D": [[0.0]], "Ts": 1.0},
      "pipeline": {"form": "predictor"}},
     1, "error: no feasible realisation: no split of the closed-loop spectrum puts n = 1 "
        "eigenvalues in S with conjugate pairs"),
    # a tiny Ts fuses both closed-loop eigenvalues into one block of two
    # input-uncontrollable modes, which n = 1 cannot hold: no split when
    # the set is the default one, a config error when the config forces it
    ({"plant": {"kind": "continuous", "A": [[0.0]], "B": [[1.0]], "C": [[1.0]], "D": [[0.0]]},
      "controller": {"kind": "continuous", "A": [[-1.0]], "B": [[1.0]], "C": [[-1.0]],
                     "D": [[0.0]]},
      "Ts": 1e-300, "pipeline": {"form": "predictor"}},
     1, "error: no feasible realisation: no split of the closed-loop spectrum puts n = 1 "
        "eigenvalues in S, the input-uncontrollable modes [0, 1] among them,"),
    ({"plant": {"kind": "continuous", "A": [[0.0]], "B": [[1.0]], "C": [[1.0]], "D": [[0.0]]},
      "controller": {"kind": "continuous", "A": [[-1.0]], "B": [[1.0]], "C": [[-1.0]],
                     "D": [[0.0]]},
      "Ts": 1e-300, "pipeline": {"form": "predictor", "forced_S": [0]}},
     2, "config error: forced-S block of size 2 exceeds |S| = 1"),
    # gains to verify are checked with the section, before any numerics
    ({"plant": "satellite",
      "verify_gains": {"K_c": [[float("inf"), 0, 0], [0, 0, 0]], "K_f": [[0], [0], [0]]}},
     2, "config error: verify_gains.K_c must be finite"),
])
def test_search_refusals_end_in_documented_exit_codes(tmp_path, capsys, doc, code, prefix):
    cfg = _write(tmp_path, "c.json", doc)
    assert main(["realise", "--config", cfg, "--out", str(tmp_path / "r.json")]) == code
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix), captured.err
    assert "Traceback" not in captured.err + captured.out


@pytest.mark.parametrize("scenario, mpc, code, message", [
    ({"base": "satellite-case-1", "x0": [1, 2]}, {}, 2,
     "config error: scenario 'a': x0 dimension does not match the plant"),
    ({"base": "satellite-case-1", "noise_sigma": [1, 2, 3]}, {}, 2,
     "config error: scenario 'a': noise_sigma has 3 entries, not 1 or n_y = 1"),
    # a vanishing own-input weight on the redundant torque pair: refused,
    # not silently regularised
    ({"duration": 2.0}, {"cost": "effect", "R1": 1e-12}, 1,
     "error: scenario 'a': condensed Hessian is near singular: cond(H) = 2.0e+14"),
    # bounds and weights of the wrong size, refused by the library objects
    ({"duration": 2.0}, {"u_bounds": [[-1], [1]]}, 2,
     "config error: scenario 'a': u_bounds have 1 entries per side, not 2"),
    ({"duration": 2.0}, {"y_bounds": [[-1, -1], [1, 1]]}, 2,
     "config error: scenario 'a': y_bounds have 2 entries per side, not 1"),
    ({"duration": 2.0}, {"x_bounds": [[-1], [1]]}, 2,
     "config error: scenario 'a': x_bounds have 1 entries per side, not 3"),
    ({"duration": 2.0}, {"W": [[1]]}, 2,
     "config error: mpc options: matching-cost weight is 1x1, not 2x2"),
    # values of the wrong type, refused before any numerics
    ({"duration": 2.0}, {"cost": "effect", "Q1": "x"}, 2, "config error: mpc.Q1 must be a number"),
    ({"duration": 2.0}, 5, 2, "config error: mpc must be an object"),
    ({"duration": 2.0}, {"N": 1.5}, 2, "config error: mpc.N must be an integer"),
    ({"duration": 2.0}, {"N": "15"}, 2, "config error: mpc.N must be an integer"),
    ({"base": "satellite-case-1", "seed": 1.5}, {}, 2,
     "config error: scenarios.a.seed must be an integer"),
    ({"duration": 2.0}, {"cost": "bogus"}, 2,
     "config error: mpc.cost must be 'matching' or 'effect'"),
    ({"duration": "a"}, {}, 2, "config error: scenarios.a.duration must be a number"),
    # a NaN bound used to drop the row silently and report a NaN violation
    ({"duration": 2.0, "x0": [0.1, 0, 0]}, {"u_bounds": [[float("nan")] * 2, [0.01] * 2]}, 2,
     "config error: mpc.u_bounds[0][0] must be a number, not NaN"),
    ({"duration": 2.0}, {"R1": 10**400}, 2, "config error: mpc.R1 is too large for a float"),
    # mpc configures custom scenarios only; a base scenario used to run on
    # its library MPC and ignore these values
    ({"base": "satellite-case-2"}, {"N": 1, "u_bounds": [[-1e-6, -1e-6], [1e-6, 1e-6]]}, 2,
     "config error: scenario 'a' comes from the library; mpc configures custom scenarios only"),
    # tracking follows the prefilter, which a custom scenario does not have
    ({"duration": 2.0}, {"tracking": "reference"}, 2,
     "config error: unknown mpc keys ['tracking']"),
    # scenario numbers refused by simulate: these used to end in a
    # traceback, a numpy error or a one-step "diverged" run
    ({"base": "satellite-case-1", "duration": float("inf")}, {}, 2,
     "config error: scenario 'a': duration must be finite and at least 0, not inf"),
    ({"base": "satellite-case-1", "duration": -1}, {}, 2,
     "config error: scenario 'a': duration must be finite and at least 0, not -1.0"),
    ({"base": "satellite-baseline", "x0": [float("inf"), 0, 0]}, {}, 2,
     "config error: scenario 'a': x0 entries must be finite"),
    ({"base": "satellite-baseline", "noise_sigma": [float("inf")]}, {}, 2,
     "config error: scenario 'a': noise_sigma entries must be finite"),
    # infinite weights, which used to end in "SVD did not converge"
    ({"duration": 2.0}, {"W": [[float("inf"), 0], [0, 1]]}, 2,
     "config error: mpc options: matching-cost weight W must be finite"),
    ({"duration": 2.0}, {"cost": "effect", "Q1": float("inf")}, 2,
     "config error: mpc options: effect weight Q1 must be finite"),
    ({"duration": 2.0}, {"soft_output_weight": float("inf"), "y_bounds": [[-1], [1]]}, 2,
     "config error: mpc options: soft_output_weight must be finite, not inf"),
    # a value equal to its default is refused all the same
    ({"base": "satellite-case-1"}, {"N": 15}, 2,
     "config error: scenario 'a' comes from the library; mpc configures custom scenarios only"),
    # a lower bound of +inf, which no input meets, used to drop the row
    ({"duration": 2.0}, {"u_bounds": [[float("inf")] * 2, [float("inf")] * 2]}, 2,
     "config error: mpc options: a lower bound of +inf or an upper bound of -inf cannot be met"),
    # a weight of the cost not in use, which used to be ignored
    ({"duration": 2.0}, {"N": 5, "Q1": float("inf"), "R1": float("inf")}, 2,
     "config error: mpc.Q1 weighs the effect cost, not the matching cost in use"),
    ({"duration": 2.0}, {"cost": "effect", "W": [[1, 0], [0, 1]]}, 2,
     "config error: mpc.W weighs the matching cost, not the effect cost in use"),
])
def test_simulate_refusals_end_in_documented_exit_codes(tmp_path, capsys, scenario, mpc,
                                                        code, message):
    cfg = _write(tmp_path, "c.json", {"plant": "satellite", "mpc": mpc,
                                      "scenarios": {"a": scenario}})
    assert main(["simulate", "--config", cfg, "--scenario", "a",
                 "--out", str(tmp_path / "t.csv")]) == code
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [message]
    assert not (tmp_path / "t.csv").exists()


def test_mpc_options_are_refused_before_the_search(tmp_path, monkeypatch, capsys):
    # the config does not depend on the realisation, so a bad weight costs no search
    monkeypatch.setattr(cli, "search_realisations", None)
    cfg = _write(tmp_path, "c.json", {"plant": "satellite", "mpc": {"W": [[1]]},
                                      "scenarios": {"a": {"duration": 2.0}}})
    assert main(["simulate", "--config", cfg, "--scenario", "a",
                 "--out", str(tmp_path / "t.csv")]) == 2
    assert capsys.readouterr().err == (
        "config error: mpc options: matching-cost weight is 1x1, not 2x2\n")


def test_only_set_mpc_values_refuse_a_library_scenario(tmp_path, capsys):
    # an empty mpc section sets nothing, so a base entry runs
    cfg = _write(tmp_path, "c.json", {
        "plant": "satellite", "mpc": {},
        "scenarios": {"a": {"base": "satellite-baseline", "duration": 1.0}}})
    assert main(["simulate", "--config", cfg, "--scenario", "a",
                 "--out", str(tmp_path / "t.csv")]) == 0
    # a library scenario named directly is refused as a base entry is, for
    # any key given, its default value included
    for mpc in ({"N": 1}, {"N": 15}, {"W": None}):
        cfg = _write(tmp_path, "d.json", {"plant": "satellite", "mpc": mpc})
        assert main(["simulate", "--config", cfg, "--scenario", "satellite-case-1",
                     "--out", str(tmp_path / "u.csv")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: scenario 'satellite-case-1' comes from the library; "
            "mpc configures custom scenarios only"]


def test_infinite_json_bounds_disable_a_row(tmp_path):
    # JSON Infinity is how a config switches one side of a bound off
    cfg = _write(tmp_path, "c.json", {
        "plant": "satellite", "mpc": {"u_bounds": [[-np.inf, -0.01], [np.inf, 0.01]]},
        "scenarios": {"a": {"duration": 2.0, "x0": [0.1, 0, 0]}}})
    assert "Infinity" in open(cfg).read()
    out = tmp_path / "t.csv"
    assert main(["simulate", "--config", cfg, "--scenario", "a", "--out", str(out)]) == 0
    summary = json.loads((tmp_path / "t.summary.json").read_text())
    assert summary["max_constraint_violation"]["input"] == 0.0
    with open(out) as fh:
        u1 = [float(row["u.1"]) for row in csv.DictReader(fh)]
    assert max(abs(v) for v in u1) <= 0.01 + 1e-12


@pytest.mark.parametrize("key, value, message", [
    ("K_c", [[1, 2]], "K_c must be n_u x n = (2, 3), got (1, 2)"),
    ("K_f", [[0, 1]], "K_f must be n x n_y = (3, 1), got (1, 2)"),
    ("T", [[1, 2]], "T must be n_K x n = (3, 3), got (1, 2)"),
    ("T", [[1, 0], [0, 1]], "T must be n_K x n = (3, 3), got (2, 2)"),
])
def test_misshaped_verify_gains_are_a_config_error(tmp_path, capsys, key, value, message):
    gains = {"form": "filter", "K_c": [[0, 0, 0], [0, 0, 0]], "K_f": [[0], [0], [0]],
             "T": np.eye(3).tolist(), key: value}
    cfg = _write(tmp_path, "vg.json", {"plant": "satellite", "verify_gains": gains})
    assert main(["verify", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"config error: verify_gains: {message}\n")


def test_verify_gains_refuses_a_loop_the_form_cannot_realise(tmp_path, capsys):
    # predictor gains against the pendulum without its loop shift: the
    # controller keeps its feedthrough, which the predictor form refuses
    G, K = pendulum_plant(), pendulum_controller()
    real = search_realisations(*loop_shift(G, K), form="predictor").ranked[0][0]
    cfg = _write(tmp_path, "vg.json", {
        "plant": "pendulum", "pipeline": {"loop_shift": False},
        "verify_gains": {"form": "predictor", "K_c": real.K_c.tolist(),
                         "K_f": real.K_f.tolist()}})
    assert main(["verify", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("config error: verify_gains: predictor form needs a strictly "
                            "proper controller; loop-shift the feedthrough into the plant first\n")


@pytest.mark.parametrize("doc, code, err", [
    # the satellite without its dipole: K(0) != 0
    ({"plant": "satellite", "pipeline": {"dipole_W": None}}, 2,
     "config error: filter form needs K(0) = 0; add a dipole to the controller\n"),
    # the pendulum in predictor form without its loop shift: D_K != 0
    ({"plant": "pendulum", "pipeline": {"form": "predictor", "loop_shift": False}}, 2,
     "config error: predictor form needs a strictly proper controller; "
     "loop-shift the feedthrough into the plant first\n"),
    # an unstable loop whose A_K = 0 fails the filter form as well: it is
    # refused as unstable, since stability is checked first
    ({"plant": {"kind": "discrete", "A": [[1.1]], "B": [[1.0]], "C": [[1.0]], "D": [[0.0]],
                "Ts": 1.0},
      "controller": {"kind": "discrete", "A": [[0.0]], "B": [[1.0]], "C": [[0.0]],
                     "D": [[0.0]], "Ts": 1.0},
      "pipeline": {"form": "filter"}}, 1,
     "error: the closed loop of the plant and controller is unstable (spectral radius "
     "1.1000); realisation requires a stabilising controller\n"),
], ids=["satellite without dipole", "pendulum without loop shift", "unstable"])
def test_a_loop_its_form_refuses_is_refused_before_any_split(tmp_path, monkeypatch, capsys,
                                                             doc, code, err):
    solves = []
    solve = realisation._solve_T_stack
    monkeypatch.setattr(realisation, "_solve_T_stack",
                        lambda *args: solves.append(1) or solve(*args))
    cfg = _write(tmp_path, "c.json", doc)
    assert main(["realise", "--config", cfg]) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", err)
    assert solves == []


def test_realise_gives_the_filter_forms_reason_for_a_singular_controller(tmp_path, capsys):
    # A_K = 0: K(0) cannot be formed, so the form's own refusal must come first
    cfg = _write(tmp_path, "ak0.json", {
        "plant": {"kind": "discrete", "A": [[0.5]], "B": [[1.0]], "C": [[1.0]],
                  "D": [[0.0]], "Ts": 1.0},
        "controller": {"kind": "discrete", "A": [[0.0]], "B": [[1.0]], "C": [[0.05]],
                       "D": [[0.0]], "Ts": 1.0},
        "pipeline": {"form": "filter"}})
    assert main(["realise", "--config", cfg]) == 2
    assert capsys.readouterr().err == (
        "config error: filter form needs a nonsingular controller A_K\n")


def test_parallel_flag_is_not_an_option(tmp_path):
    cfg = _write(tmp_path, "sat.json", {"plant": "satellite"})
    with pytest.raises(SystemExit) as exc:
        main(["realise", "--config", cfg, "--parallel", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("name", ["satellite", "pendulum"])
def test_cli_and_library_realise_the_same_builtin(tmp_path, name):
    cfg = _write(tmp_path, "c.json", {"plant": name})
    out = tmp_path / "report.json"
    assert main(["realise", "--config", cfg, "--out", str(out)]) == 0
    top = json.loads(out.read_text())["realisations"][0]
    lib = scenario_library(name)
    real = lib[f"{name}-case-1"].controller.realisation
    npt.assert_array_equal(top["K_c"], real.K_c)
    npt.assert_array_equal(top["K_f"], real.K_f)
    if name == "satellite":
        base = _baseline_counterpart(lib["satellite-case-1"]).controller.K
        ref = lib["satellite-baseline"].controller.K
        for m in "ABCD":
            npt.assert_array_equal(getattr(base, m), getattr(ref, m))


def test_verify_sweeps_no_loop_margins(tmp_path, monkeypatch, capsys):
    sweeps = []
    margins = cli.loop_margins
    monkeypatch.setattr(cli, "loop_margins",
                        lambda *a, **kw: sweeps.append(1) or margins(*a, **kw))
    cfg = _write(tmp_path, "sat.json", {"plant": "satellite"})
    assert main(["verify", "--config", cfg]) == 0
    assert sweeps == []
    assert main(["realise", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 0
    assert len(sweeps) == 4  # the report's margins, one per ranked row


def test_realise_refuses_margins_of_a_singular_pencil_with_exit_1(tmp_path, monkeypatch, capsys):
    def singular(L):
        raise NumericalError("loop_margins: the unity-crossing pencil is singular: "
                             "|L| = 1 at every frequency")
    monkeypatch.setattr(cli, "loop_margins", singular)
    cfg = _write(tmp_path, "sat.json", {"plant": "satellite"})
    assert main(["realise", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: rank 1 margins: loop_margins: the unity-crossing "
                            "pencil is singular: |L| = 1 at every frequency\n")


def test_report_config_echo_round_trips_to_identical_numerics(tmp_path):
    raw = {
        "plant": {"kind": "discrete", "A": [[0.5, 0.1], [0.0, 0.4]],
                  "B": [[0.0], [1.0]], "C": [[1.0, 0.0]], "D": [[0.0]],
                  "Ts": 0.5},
        "controller": {"kind": "discrete", "A": [[0.3]], "B": [[0.2]],
                       "C": [[0.1]], "D": [[0.0]], "Ts": 0.5},
        "pipeline": {"form": "predictor", "loop_shift": True},
    }
    cfg_path = _write(tmp_path, "c.json", raw)
    out = tmp_path / "rep.json"
    assert main(["realise", "--config", cfg_path, "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    echo = parse_config(rep["config"])
    orig = parse_config(raw)
    for a, b in zip(build_problem(echo), build_problem(orig)):
        npt.assert_array_equal(a.A, b.A)
        npt.assert_array_equal(a.B, b.B)
        npt.assert_array_equal(a.C, b.C)
        npt.assert_array_equal(a.D, b.D)
        assert a.Ts == b.Ts
    assert echo.mpc_given == orig.mpc_given

    # the echo of a config without mpc keys still runs a library scenario
    raw = {"plant": "satellite"}
    cfg_path = _write(tmp_path, "sat.json", raw)
    assert main(["realise", "--config", cfg_path, "--out", str(out)]) == 0
    echo_raw = json.loads(out.read_text())["config"]
    assert parse_config(echo_raw).mpc_given == parse_config(raw).mpc_given
    traces = []
    for path in (cfg_path, _write(tmp_path, "echo.json", echo_raw)):
        traces.append(tmp_path / f"trace{len(traces)}.csv")
        assert main(["simulate", "--config", path, "--scenario", "satellite-case-1",
                     "--out", str(traces[-1])]) == 0
    assert traces[0].read_bytes() == traces[1].read_bytes()


def test_custom_scenario_runs_the_config_systems(tmp_path):
    cfg = _write(tmp_path, "c.json", {
        "plant": {"kind": "discrete", "A": [[0.5, 0.1], [0.0, 0.4]],
                  "B": [[0.0], [1.0]], "C": [[1.0, 0.0]], "D": [[0.0]],
                  "Ts": 0.5},
        "controller": {"kind": "discrete", "A": [[0.3]], "B": [[0.2]],
                       "C": [[0.1]], "D": [[0.0]], "Ts": 0.5},
        "pipeline": {"form": "predictor", "loop_shift": True},
        "mpc": {"N": 5, "u_bounds": [[-2.0], [2.0]]},
        "scenarios": {"mine": {"duration": 10.0, "x0": [1.0, 0.0]}},
    })
    out = tmp_path / "mine.csv"
    assert main(["simulate", "--config", cfg, "--scenario", "mine",
                 "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "y.0", "u.0", "x.0", "x.1", "xhat.0", "xhat.1",
                       "qp.status", "qp.obj", "qp.nact"]
    assert len(rows) == 21
    # the regulation loop from x0 = 1 decays
    assert abs(float(rows[-1][1])) < abs(float(rows[1][1]))


def test_parse_config_validates_before_numerics():
    with pytest.raises(ConfigError):
        parse_config({"plant": "saturn"})
    with pytest.raises(ConfigError):
        parse_config({"plant": "satellite", "pipeline": {"form": "smoother"}})
    with pytest.raises(ConfigError):
        parse_config({"plant": "satellite", "mpc": {"horizon": 5}})
    with pytest.raises(ConfigError):
        parse_config([1, 2, 3])
    for section in ({"mpc": 5}, {"pipeline": [1]}):
        with pytest.raises(ConfigError, match="must be an object"):
            parse_config({"plant": "satellite", **section})


def test_docstring_schema_lists_every_config_key():
    block = cli.__doc__.split("Config schema")[1].split("\n    }\n")[0]
    missing = [f"{section}.{key}" for section, keys in cli._SCHEMA.items()
               for key in keys if f'"{key}"' not in block]
    assert missing == []


def test_console_entry_point_runs(tmp_path):
    cfg = _write(tmp_path, "sat.json", {"plant": "satellite"})
    proc = subprocess.run(
        [sys.executable, "-m", "lti2mpc.cli", "realise", "--config", cfg],
        capture_output=True, text=True)
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert rep["feasible"] == 4
