"""The four workloads: what each sets up, runs and checks.

Every workload runs one *unit* of work per repetition:

surrogate-search
    ``search_realisations`` on the 21-state surrogate (``scale_surrogate(0)``),
    predictor form, product ranking, serially.  ``forced_S`` holds the
    closed-loop modes that are uncontrollable from the plant input plus the
    two smallest-modulus conjugate pairs: 4754 splits with the full
    search's phase mix (solve_T, free-pole DARE, build, H2 scoring) and its
    high rejection share, in a few seconds instead of minutes.  The QP and
    the runtime do no work.  Every repetition's ranked order, scores and
    rejection reasons must equal those of the ``workers=2`` search run
    once before the timed repetitions.
surrogate-search-w2
    The same search with ``workers=2``, the package's own process pool.
replay-constrained
    One ``simulate`` pass over satellite cases 2, 3, 5 and pendulum case 2
    (680 control steps); the dual active-set QP does most of the work.
cli-session
    In-process ``lti2mpc.cli.main`` on the built-in configs (realise
    satellite and pendulum, simulate satellite-case-1 and pendulum-case-1,
    verify satellite), reports in a temporary directory of the checkout.
    ``loop_margins`` dominates; the QP runs unconstrained.

Each unit's outputs are checked against the reference.

The problem instances are fixed: the outputs are checked against a
reference recorded for exactly these inputs, and the surrogate's search
cost depends strongly on its seed (1703, 1251, 172 and 1769 feasible splits
for seeds 0-3), so a seeded instance would measure the seed, not the code.
The run's seed sets the order of the work inside each unit.

``size="smoke"`` shrinks every workload for the smoke test: two more
forced pairs (170 splits), satellite-case-5 alone, realise and verify
satellite.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import random
import shutil
from pathlib import Path

import numpy as np

from checks import check_inputs, check_top_rows, ranked_rows

TOP = 10

# -- surrogate-search --------------------------------------------------------


def surrogate_forced_S(G, A_cl, eig, n_pairs):
    """Closed-loop modes uncontrollable from the plant input (PBH test on
    [lam I - A_cl, B_cl]) plus the ``n_pairs`` smallest-modulus conjugate
    pairs, as indices into ``eig``."""
    m = A_cl.shape[0]
    B_cl = np.vstack([G.B, np.zeros((m - G.n, G.n_u))])
    tol = 1e-8 * max(np.linalg.norm(A_cl), 1.0)
    forced = set()
    for i, lam in enumerate(eig.values):
        M = np.hstack([lam * np.eye(m) - A_cl, B_cl])
        if np.linalg.svd(M, compute_uv=False)[-1] <= tol:
            forced.add(i)
    pairs = sorted((abs(eig.values[i]), i) for i in range(eig.n)
                   if eig.pair_index[i] is not None and eig.values[i].imag > 0)
    for _, i in pairs[:n_pairs]:
        forced.update((i, eig.pair_index[i]))
    return tuple(sorted(forced))


class SurrogateSearch:
    name = "surrogate-search"
    reference_key = "surrogate-search"
    label = "search_s"
    workers = None

    def __init__(self, size, root, reference):
        self.size = size
        self.reference = reference
        self.expected = None

    def setup(self):
        from lti2mpc.linalg import eig_paired
        from lti2mpc.models import scale_surrogate
        from lti2mpc.realisation import closed_loop_matrix

        self.realisation = importlib.import_module("lti2mpc.realisation")
        self.G, self.K = scale_surrogate(0)
        A_cl = closed_loop_matrix(self.G, self.K)
        n_pairs = 2 if self.size == "full" else 4
        self.forced = surrogate_forced_S(self.G, A_cl, eig_paired(A_cl), n_pairs)

    def search(self, forced, workers):
        return self.realisation.search_realisations(
            self.G, self.K, form="predictor", rank_by="product",
            forced_S=forced, workers=workers)

    def run(self, rng):
        return self.search(self.forced, self.workers)

    def traced_unit(self, rng):
        """The unit the traced run times: the serial search, since worker
        processes keep their own spans."""
        return self.search(self.forced, None)

    def warm(self):
        """Fill lazy imports (and the pool path) on the smoke-size search;
        the serial workload also runs the ``workers=2`` search its
        repetitions must reproduce."""
        from lti2mpc.linalg import eig_paired
        from lti2mpc.realisation import closed_loop_matrix

        A_cl = closed_loop_matrix(self.G, self.K)
        self.search(surrogate_forced_S(self.G, A_cl, eig_paired(A_cl), 4), self.workers)
        if self.workers is None:
            self.expected = self.signature(self.search(self.forced, 2))

    def check(self, out, checks):
        check_top_rows(checks, f"{self.name} top {TOP}", ranked_rows(out, TOP),
                       self.reference[self.size]["top"])
        if self.expected is not None:
            checks.check(self.signature(out) == self.expected,
                         f"{self.name}: serial and workers=2 searches differ")

    @staticmethod
    def signature(out):
        """Ranked order, scores and rejection reasons: the serial and
        ``workers=2`` searches must agree on all of them exactly."""
        ranked = [(r.choice.state_feedback_set, s.h2_noise, s.h2_dist, s.product)
                  for r, s in out.ranked]
        return ranked, [(c.state_feedback_set, reason) for c, reason in out.rejected]

    def reference_data(self, out):
        return {"top": ranked_rows(out, TOP)}

    def close(self):
        pass


class SurrogateSearchW2(SurrogateSearch):
    name = "surrogate-search-w2"
    label = "search_w2_s"
    workers = 2


# -- replay-constrained --------------------------------------------------------

REPLAY_SCENARIOS = {
    "full": ("satellite-case-2", "satellite-case-3", "satellite-case-5",
             "pendulum-case-2"),
    "smoke": ("satellite-case-5",),
}


def _replay_outcome(tr):
    return {"u_applied": tr.u_applied, "status": list(tr.qp_status),
            "diverged": bool(tr.diverged), "steps": len(tr)}


class ReplayConstrained:
    name = "replay-constrained"
    reference_key = "replay-constrained"
    label = "replay_s"

    def __init__(self, size, root, reference):
        self.names = REPLAY_SCENARIOS[size]
        self.reference = reference

    def setup(self):
        # looked up at call time, so the tracer's wrapper is seen
        self.sim = importlib.import_module("lti2mpc.sim")
        self.library = self.sim.scenario_library()

    def run(self, rng):
        order = list(self.names)
        rng.shuffle(order)
        return {name: _replay_outcome(self.sim.simulate(self.library[name]))
                for name in order}

    traced_unit = run

    def warm(self):
        self.sim.simulate(self.library[self.names[0]])

    def check(self, out, checks):
        for name in self.names:
            res = out.get(name)
            if not checks.check(res is not None, f"{name}: no trace"):
                continue
            checks.check(not res["diverged"], f"{name}: diverged")
            checks.check("fallback" not in res["status"], f"{name}: fallback step")
            check_inputs(checks, name, res["u_applied"], self.reference[name])
            bounds = self.library[name].controller.config.u_bounds
            if bounds is not None:
                lo, hi = (np.asarray(v, float) for v in bounds)
                u = np.asarray(res["u_applied"])
                checks.check(np.all(u >= lo - 1e-9) and np.all(u <= hi + 1e-9),
                             f"{name}: applied input outside its bounds")

    def reference_data(self, out):
        return {name: out[name]["u_applied"].tolist() for name in self.names}

    def close(self):
        pass


# -- cli-session -----------------------------------------------------------------

CLI_COMMANDS = {
    "realise-satellite": ["realise", "--config", "{sat}", "--out", "{tmp}/realise-satellite.json"],
    "realise-pendulum": ["realise", "--config", "{pend}", "--out", "{tmp}/realise-pendulum.json"],
    "simulate-satellite-case-1": ["simulate", "--config", "{sat}", "--scenario",
                                  "satellite-case-1", "--out", "{tmp}/satellite-case-1.csv"],
    "simulate-pendulum-case-1": ["simulate", "--config", "{pend}", "--scenario",
                                 "pendulum-case-1", "--out", "{tmp}/pendulum-case-1.csv"],
    "verify-satellite": ["verify", "--config", "{sat}"],
}
CLI_SESSION = {
    "full": tuple(CLI_COMMANDS),
    "smoke": ("realise-satellite", "verify-satellite"),
}


class CliSession:
    name = "cli-session"
    reference_key = "cli-session"
    label = "session_s"

    def __init__(self, size, root, reference):
        self.labels_run = CLI_SESSION[size]
        self.reference = reference
        self.tmp = Path(root) / ".perfbench" / f"cli-session-{os.getpid()}"

    def setup(self):
        self.cli = importlib.import_module("lti2mpc.cli")
        self.tmp.mkdir(parents=True, exist_ok=True)
        paths = {"sat": self.tmp / "satellite.json", "pend": self.tmp / "pendulum.json",
                 "tmp": self.tmp}
        paths["sat"].write_text(json.dumps({"plant": "satellite"}))
        paths["pend"].write_text(json.dumps({"plant": "pendulum"}))
        self.argv = {label: [a.format(**paths) for a in CLI_COMMANDS[label]]
                     for label in self.labels_run}

    def run(self, rng):
        order = list(self.labels_run)
        rng.shuffle(order)
        out = {}
        for label in order:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = self.cli.main(self.argv[label])
            out[label] = {"exit": code, "stdout": buf.getvalue()}
        return out

    traced_unit = run

    def warm(self):
        self.run(random.Random(0))

    def _realise_rows(self, label):
        rep = json.loads((self.tmp / f"{label}.json").read_text())
        return [(row["S"], row["h2_noise"], row["h2_dist"], row["product"])
                for row in rep["realisations"][:TOP]]

    def check(self, out, checks):
        for label in self.labels_run:
            res = out.get(label)
            if not checks.check(res is not None and res["exit"] == 0,
                                f"{label}: exit code {None if res is None else res['exit']}"):
                continue
            if label.startswith("realise-"):
                check_top_rows(checks, label, self._realise_rows(label),
                               self.reference[label])
            elif label.startswith("verify-"):
                lines = res["stdout"].splitlines()
                checks.check(lines and all(line.startswith("PASS") for line in lines),
                             f"{label}: not every line PASS")
            else:
                csv = Path(self.argv[label][-1])
                summary = json.loads(csv.with_suffix(".summary.json").read_text())
                checks.check(summary["diverged"] is False, f"{label}: diverged")
                checks.check(summary["fallback_steps"] == 0, f"{label}: fallback steps")

    def reference_data(self, out):
        return {label: self._realise_rows(label)
                for label in self.labels_run if label.startswith("realise-")}

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


WORKLOADS = {w.name: w for w in (SurrogateSearch, SurrogateSearchW2, ReplayConstrained,
                                  CliSession)}
