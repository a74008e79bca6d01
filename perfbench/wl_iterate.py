"""iterate: in-process MM (soc and rsoc targets) and EM runs.

tol is 0 and max_iters fixed, so every op does the same number of
iterations. The oracle's trajectory enumeration dominates, behind many small
soft-policy sub-solves; the random problems have 10^4 to 10^5 baseline
trajectories, well under the enumeration cap.
"""

from __future__ import annotations

from functools import partial
from pathlib import Path

import numpy as np

import klctrl
from klctrl import iterate as kit
from klctrl import oracle as koracle
from klctrl import solvers as ks

import reference as ref
from problems import random_tables, read_problem_file, to_problem
from workload import Call, Workload, layer_count, layer_seconds, pass_seconds, per_pass

MAX_ITERS = 6
EM_MM_TOL = 1e-9
BUNDLED = ("m1", "chain5", "grid4x4")
# name, (S, A, T), all mass on state 0 at the start
RANDOM = (
    ("r4x2x5", (4, 2, 5), True),  # 8^5 = 32768 trajectories
    ("r5x2x4", (5, 2, 4), False),  # 5 * 10^4 = 50000
    ("r3x3x4", (3, 3, 4), False),  # 3 * 9^4 = 19683
)
KINDS = ("mm-soc", "mm-rsoc", "em")


class IterateWorkload(Workload):
    name = "iterate"

    def __init__(self, root, seed):
        rng = np.random.default_rng(seed)
        problem_dir = Path(root) / "src" / "klctrl" / "problems"
        self.paths = {name: problem_dir / f"{name}.json" for name in BUNDLED}
        self.problems = {name: klctrl.load_problem(path)[0] for name, path in self.paths.items()}
        self.tables = {}
        for name, (S, A, T), single_start in RANDOM:
            tables = random_tables(
                rng, S, A, T, sparse=False, lambda_p=1.0,
                lambda_s=float(rng.uniform(0.5, 1.5)), single_start=single_start,
            )
            self.tables[name] = tables
            self.problems[name] = to_problem(tables)
        self._sync_iterates = {}
        self.calls = []
        for name, p in self.problems.items():
            lam_s = float(p.lambda_s)
            # synchronized (lambda_p = lambda_s) when lambda_s > 0: then EM
            # must reproduce the rsoc MM iterates
            rsoc_p = lam_s if lam_s > 0 else float(p.lambda_p)
            em_lam = lam_s if lam_s > 0 else 1.0
            runs = {
                "mm-soc": partial(kit.mm_solve, p, "soc", float(p.lambda_p), 0.0, MAX_ITERS),
                "mm-rsoc": partial(kit.mm_solve, p, "rsoc", rsoc_p, 0.0, MAX_ITERS),
                "em": partial(kit.em_solve, p, em_lam, 0.0, MAX_ITERS),
            }
            lams = {"mm-soc": None, "mm-rsoc": lam_s, "em": em_lam}
            for kind in KINDS:
                self.calls.append(
                    Call(
                        f"{kind}.{name}",
                        runs[kind],
                        partial(self._check, kind, name, lams[kind], rsoc_p == lam_s),
                        lambda out: {"iterations": out[1].iterations},
                    )
                )

    def _table(self, name):
        if name not in self.tables:
            self.tables[name] = read_problem_file(self.paths[name])
        return self.tables[name]

    def _check(self, kind, name, lam, synchronized, out):
        t = self._table(name)
        trace = out[1]
        iterates = trace.policy_iterates
        faults = []
        if trace.iterations != MAX_ITERS or len(iterates) != MAX_ITERS + 1:
            faults.append(f"{trace.iterations} iterations, expected {MAX_ITERS}")
            return [f"{kind}.{name}: {f}" for f in faults]
        values = [ref.objective(t, pi, lam) for pi in iterates]
        faults.append(ref.close(trace.true_objective, values[1:]))
        faults += ref.descent_faults(values, ref.optimum(t, lam))
        if name == "m1" and kind == "mm-soc":
            # MM on m1 has the closed form pi_k(u=1 | x=0) = 1 / (1 + e^-k)
            closed = [1.0 / (1.0 + np.exp(-k)) for k in range(MAX_ITERS + 1)]
            faults.append(ref.close([pi[0, 0, 1] for pi in iterates], closed))
        if kind == "mm-rsoc" and synchronized:
            self._sync_iterates[name] = iterates
        if kind == "em" and name in self._sync_iterates:
            reach = ref.reachable(t)
            gap = max(
                float(np.max(np.abs(a[reach] - b[reach])))
                for a, b in zip(iterates, self._sync_iterates.pop(name))
            )
            if gap > EM_MM_TOL:
                faults.append(f"EM differs from synchronized MM by {gap:.3g}")
        return [f"{kind}.{name}: {f}" for f in faults if f]

    def install(self, tracer):
        tracer.wrap(kit, "solve_formulation", "iterate.subsolve")
        for name in ("expected_cost_under", "rsoc_value"):
            tracer.wrap(kit, name, "iterate.objective")
        tracer.wrap(koracle, "exact_posterior", "oracle.posterior")
        tracer.wrap(koracle, "enumerate_trajectories", "oracle.enumerate", count=len)
        tracer.wrap(ks, "validate_problem", "model.validate")

    def layer_metrics(self, passes):
        def per_iteration(kind):
            def fn(rows):
                rows = [r for r in rows if r.label.startswith(kind + ".")]
                return pass_seconds(rows) / sum(r.info["iterations"] for r in rows)
            return per_pass(passes, fn)

        def layer(key):
            return per_pass(passes, lambda r: layer_seconds(r, key))

        return {
            "iterate.mm_iter_s.soc": (per_iteration("mm-soc"), "s"),
            "iterate.mm_iter_s.rsoc": (per_iteration("mm-rsoc"), "s"),
            "iterate.em_iter_s": (per_iteration("em"), "s"),
            "iterate.iterations_per_op": (
                per_pass(passes, lambda r: sum(row.info["iterations"] for row in r)), "count"
            ),
            "iterate.subsolve_s": (layer("iterate.subsolve"), "s"),
            "iterate.objective_s": (layer("iterate.objective"), "s"),
            "oracle.posterior_s": (layer("oracle.posterior"), "s"),
            "oracle.enumerate_s": (layer("oracle.enumerate"), "s"),
            "oracle.enumerate_share": (
                per_pass(passes, lambda r: layer_seconds(r, "oracle.enumerate") / pass_seconds(r)),
                "share",
            ),
            "oracle.rows_per_op": (per_pass(passes, lambda r: layer_count(r, "oracle.enumerate")), "count"),
            "model.validate_s.iterate": (layer("model.validate"), "s"),
        }


WORKLOAD = IterateWorkload
