"""ladder: in-process backward passes on a synthetic (S, A, T) ladder.

One op is one pass over the rungs. Repeat counts give each rung a comparable
share of a pass, so a change that helps only small or only large problems
still shows. Risk log-sum-exp, validation and table wrapping dominate here;
the oracle and the sampler do not run.
"""

from __future__ import annotations

import tracemalloc
from functools import partial

import numpy as np

from klctrl import desirability as kd
from klctrl import solvers as ks

import reference as ref
from problems import random_tables, to_problem
from workload import Call, Workload, layer_seconds, median, pass_seconds, per_pass

# name, (S, A, T), calls of each solver per pass
RUNGS = (
    ("small", (10, 3, 5), 50),
    ("mid", (50, 5, 20), 4),
    ("large", (100, 8, 30), 1),
)
LAMBDA_P = 1.0
LAMBDA_S = 0.5  # > 0, so the synchronized and linear passes apply
KINDS = ("central", "soc", "sp_rsoc", "linear")


def _linear(problem):
    d = kd.linear_backward(problem, LAMBDA_S)
    return d, kd.policy_from_desirability(problem, d)


class LadderWorkload(Workload):
    name = "ladder"

    def __init__(self, root, seed):
        rng = np.random.default_rng(seed)
        self.tables = {}
        self.problems = {}
        for rung, (S, A, T), _ in RUNGS:
            tables = random_tables(
                rng, S, A, T, sparse=True, lambda_p=LAMBDA_P, lambda_s=LAMBDA_S
            )
            self.tables[rung] = tables
            self.problems[rung] = to_problem(tables)
        self._refs = {}
        self.calls = []
        for rung, _, repeats in RUNGS:
            p = self.problems[rung]
            runs = {
                "central": partial(ks.solve_central, p),
                "soc": partial(ks.solve_formulation, p, ks.Formulation.SOC),
                "sp_rsoc": partial(
                    ks.solve_formulation, p, ks.Formulation.SP_RSOC, synchronized=True
                ),
                "linear": partial(_linear, p),
            }
            for _ in range(repeats):
                for kind in KINDS:
                    self.calls.append(
                        Call(f"{kind}.{rung}", runs[kind], partial(self._check, kind, rung))
                    )

    def _ref(self, rung):
        if rung not in self._refs:
            t = self.tables[rung]
            self._refs[rung] = {
                "central": ref.two_weight(t, LAMBDA_P, LAMBDA_S),
                "sync": ref.two_weight(t, abs(LAMBDA_S), LAMBDA_S),
                "soc": ref.soc_values(t),
            }
        return self._refs[rung]

    def _check(self, kind, rung, out):
        t = self.tables[rung]
        refs = self._ref(rung)
        faults = []
        if kind == "linear":
            d, pol = out
            # the linear Bellman property: -log z / lam is the synchronized central V
            V_sync, pi_sync = refs["sync"]
            faults += [ref.close(d.values(), V_sync), ref.close(pol.table, pi_sync)]
            faults += ref.row_faults(pol.table, t.rho)
        elif kind == "soc":
            faults.append(ref.close(out.V, refs["soc"]))
        else:
            V, pi = refs["central" if kind == "central" else "sync"]
            faults.append(ref.close(out.V, V))
            faults += ref.row_faults(out.pi_star.table, t.rho)
            if kind == "central":
                faults += ref.row_faults(out.tau_star.table, t.iota)
        return [f"{kind}.{rung}: {f}" for f in faults if f]

    def install(self, tracer):
        for module in (ks, kd):
            tracer.wrap(module, "validate_problem", "model.validate")
        for name in ("Policy", "TransitionKernel"):
            tracer.wrap(ks, name, "model.wrap")
        for name in ("entropic_risk_rows", "tilted_rows"):
            tracer.wrap(ks, name, "risk.rows")
        tracer.wrap(kd, "linear_backward", "desirability.linear_backward")

    def layer_metrics(self, passes):
        out = {
            "model.validate_s": (per_pass(passes, lambda r: layer_seconds(r, "model.validate")), "s"),
            "model.validate_share": (
                per_pass(passes, lambda r: layer_seconds(r, "model.validate") / pass_seconds(r)),
                "share",
            ),
            "model.wrap_s": (per_pass(passes, lambda r: layer_seconds(r, "model.wrap")), "s"),
            "risk.rows_s": (per_pass(passes, lambda r: layer_seconds(r, "risk.rows")), "s"),
        }
        rows = [row for rows in passes for row in rows]
        for rung, _, _ in RUNGS:
            def call_seconds(kind):
                return median([r.seconds for r in rows if r.label == f"{kind}.{rung}"])

            central = call_seconds("central")
            out[f"solvers.central_s.{rung}"] = (central, "s")
            out[f"solvers.soc_s.{rung}"] = (call_seconds("soc"), "s")
            out[f"solvers.sp_rsoc_s.{rung}"] = (call_seconds("sp_rsoc"), "s")
            out[f"solvers.central_entries_per_s.{rung}"] = (self.tables[rung].entries / central, "1/s")
            out[f"desirability.linear_backward_s.{rung}"] = (
                median([
                    r.layers["desirability.linear_backward"][0]
                    for r in rows
                    if r.label == f"linear.{rung}"
                ]),
                "s",
            )
        tracemalloc.start()
        try:
            ks.solve_central(self.problems["large"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out["solvers.traced_peak_mb.large"] = (peak / 2**20, "MB")
        return out


WORKLOAD = LadderWorkload
