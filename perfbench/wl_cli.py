"""cli: fresh ``python -m klctrl.cli`` processes over a fixed list of commands.

One op is one command; a run ends on a whole pass over the list. This is the
only workload where interpreter start, the scipy import, JSON parsing and
JSON/CSV writing dominate. Its set-up is writing the two generated mid-size
problem files (klctrl is not imported in this process).
"""

from __future__ import annotations

import csv
import os
import subprocess
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Optional

import numpy as np

import reference as ref
from problems import random_tables, read_problem_file, write_problem_file
from workload import WORK_DIR, Call, Failed, Workload, median, per_pass

MID = (50, 5, 20)  # S, A, T: the mid rung of the ladder
ITERS = "20"
SAMPLES = "100000"
CHILD = Path(__file__).resolve().parent / "cli_child.py"
MAX_SE = 5.0

# label, problem, klctrl arguments, output format (None: stdout only)
COMMANDS = (
    ("solve-central-chain5", "chain5", ["solve", "--formulation", "central"], "json"),
    ("solve-sprsoc-sync-chain5", "chain5", ["solve", "--formulation", "sp-rsoc", "--sync", "--format", "csv"], "csv"),
    ("solve-soc-grid4x4", "grid4x4", ["solve", "--formulation", "soc"], "json"),
    ("solve-central-grid4x4", "grid4x4", ["solve", "--formulation", "central", "--format", "csv"], "csv"),
    ("mm-rsoc-grid4x4", "grid4x4", ["mm", "--target", "rsoc", "--lambda-p", "1", "--tol", "0", "--max-iters", ITERS], "json"),
    ("em-chain5", "chain5", ["em", "--lambda", "1", "--tol", "0", "--max-iters", ITERS], "json"),
    ("sample-z-chain5", "chain5", ["sample-z", "--lambda", "1", "--t", "0", "--state", "0", "--samples", SAMPLES], "json"),
    ("compose-chain5", "chain5", ["compose", "--lambda", "1"], "json"),
    ("verify-m1", "m1", ["verify"], None),
    ("verify-grid4x4", "grid4x4", ["verify"], None),
    ("solve-central-mid-full", "mid-full", ["solve", "--formulation", "central"], "json"),
    ("solve-central-mid-homogeneous", "mid-homogeneous", ["solve", "--formulation", "central", "--format", "csv"], "csv"),
)


@dataclass
class Result:
    out: Optional[Path]
    stdout: Path
    spans: Optional[Path]
    rss_mb: float


class CliWorkload(Workload):
    name = "cli"
    op_is_pass = False

    def __init__(self, root, seed):
        self.root = Path(root)
        self.work = self.root / WORK_DIR / "cli"
        self.work.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(seed)
        S, A, T = MID
        self.tables = {
            "mid-full": random_tables(rng, S, A, T, sparse=True, lambda_p=1.0, lambda_s=0.5),
            "mid-homogeneous": random_tables(
                rng, S, A, T, sparse=True, lambda_p=1.0, lambda_s=0.5, homogeneous=True
            ),
        }
        self.paths = {name: self.work / f"{name}.json" for name in self.tables}
        write_problem_file(self.tables["mid-full"], self.paths["mid-full"])
        write_problem_file(
            self.tables["mid-homogeneous"], self.paths["mid-homogeneous"], homogeneous=True
        )
        for name in ("m1", "chain5", "grid4x4"):
            self.paths[name] = self.root / "src" / "klctrl" / "problems" / f"{name}.json"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(self.root / "src"), os.environ.get("PYTHONPATH")) if p
        )
        self.calls = []
        for label, problem, args, fmt in COMMANDS:
            argv = args + ["--problem", str(self.paths[problem])]
            if args[0] == "sample-z":
                argv += ["--seed", str(seed)]
            out = self.work / f"{label}.{fmt}" if fmt else None
            if out:
                argv += ["--out", str(out)]
            self.calls.append(
                Call(
                    label,
                    partial(self._run, label, argv, out),
                    partial(getattr(self, "_check_" + args[0].replace("-", "_")), problem, args, fmt),
                    self._info,
                )
            )

    def _table(self, name):
        if name not in self.tables:
            self.tables[name] = read_problem_file(self.paths[name])
        return self.tables[name]

    def _run(self, label, argv, out):
        if out:
            out.unlink(missing_ok=True)
        stdout = self.work / f"{label}.stdout"
        stderr = self.work / f"{label}.stderr"
        spans = self.work / f"{label}.spans.json" if self.traced else None
        head = [sys.executable, str(CHILD), str(spans)] if spans else [sys.executable, "-m", "klctrl.cli"]
        with open(stdout, "wb") as so, open(stderr, "wb") as se:
            proc = subprocess.Popen(head + argv, stdout=so, stderr=se, env=self.env, cwd=self.root)
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = stderr.read_text(errors="replace")[-300:]
            raise RuntimeError(f"exit code {proc.returncode}: {tail}")
        return Result(out, stdout, spans, usage.ru_maxrss / 1024)

    def _info(self, result):
        info = {"rss_mb": result.rss_mb, "output_mb": result.stdout.stat().st_size / 2**20}
        if result.out:
            info["output_mb"] += result.out.stat().st_size / 2**20
        if result.spans:
            info["spans"] = ref.strict_json(result.spans.read_text())
        return info

    def peak_rss_mb(self, rows):
        return max(row.info["rss_mb"] for row in rows)

    # --- checks -------------------------------------------------------------

    def _reference_V(self, t, args):
        if "soc" in args:
            return ref.soc_values(t)
        lam_p = abs(t.lambda_s) if "--sync" in args else t.lambda_p
        return ref.two_weight(t, lam_p, t.lambda_s)[0]

    def _check_solve(self, problem, args, fmt, result):
        t = self._table(problem)
        if fmt == "json":
            doc = _output_json(result.out)
            V, pi, tau = (np.asarray(doc[k], dtype=float) for k in ("V", "pi", "tau"))
        else:
            V, pi, tau = _read_solution_csv(result.out, t)
        faults = [ref.close(V, self._reference_V(t, args))]
        # soc has no policy KL term, so its greedy rows may leave rho's support
        faults += ref.row_faults(pi, None if "soc" in args else t.rho)
        faults += ref.row_faults(tau, t.iota)
        return [f for f in faults if f]

    def _objective_faults(self, t, true_objective, pi, lam):
        """The trace's last true objective is the reference value of the final
        policy; from the baseline on, the trace never rises and never beats
        the optimum."""
        chain = [ref.objective(t, t.rho, lam)] + list(true_objective)
        faults = [ref.close(true_objective[-1], ref.objective(t, pi, lam))]
        return faults + ref.descent_faults(chain, ref.optimum(t, lam))

    def _check_mm(self, problem, args, fmt, result):
        t = self._table(problem)
        doc = _output_json(result.out)
        target = args[args.index("--target") + 1]
        pi = np.asarray(doc["solution"]["pi"], dtype=float)
        true_objective = [row["true_objective"] for row in doc["trace"]]
        faults = []
        if doc["iterations"] != int(ITERS) or len(true_objective) != int(ITERS):
            faults.append(f"{doc['iterations']} iterations, expected {ITERS}")
        faults += self._objective_faults(
            t, true_objective, pi, None if target == "soc" else t.lambda_s
        )
        return [f for f in faults if f]

    def _check_em(self, problem, args, fmt, result):
        t = self._table(problem)
        doc = _output_json(result.out)
        lam = float(args[args.index("--lambda") + 1])
        true_objective = [row["true_objective"] for row in doc["trace"]]
        faults = []
        if doc["iterations"] != int(ITERS):
            faults.append(f"{doc['iterations']} iterations, expected {ITERS}")
        pi = np.asarray(doc["pi"], dtype=float)
        faults += self._objective_faults(t, true_objective, pi, lam)
        faults += ref.row_faults(pi, t.rho)
        return [f for f in faults if f]

    def _check_sample_z(self, problem, args, fmt, result):
        t = self._table(problem)
        doc = _output_json(result.out)
        lam = float(args[args.index("--lambda") + 1])
        z = ref.desirability(t, lam, np.exp(-lam * t.terminal))[0, 0]
        estimate, stderr = doc["estimate"], doc["standard_error"]
        if not stderr > 0:
            return [f"standard error {stderr!r}"]
        if abs(estimate - z) > MAX_SE * stderr:
            return [f"estimate {estimate!r} is {abs(estimate - z) / stderr:.1f} SE from z {z!r}"]
        return []

    def _check_compose(self, problem, args, fmt, result):
        t = self._table(problem)
        doc = _output_json(result.out)
        lam = float(args[args.index("--lambda") + 1])
        # z is linear in its terminal value: the composite is the solve from
        # the gamma-weighted sum of component terminal desirabilities
        z_T = sum(g * np.exp(-lam * tc) for tc, g in t.components)
        weights = np.asarray(doc["weights"], dtype=float)
        faults = [
            ref.close(doc["z"], ref.desirability(t, lam, z_T)),
            ref.close(weights.sum(axis=0), np.ones(weights.shape[1:])),
        ]
        faults += ref.row_faults(doc["mixture_policy"], t.rho)
        return [f for f in faults if f]

    def _check_verify(self, problem, args, fmt, result):
        lines = result.stdout.read_text().splitlines()
        faults = [line for line in lines if line.startswith("FAIL")]
        if not any(line.startswith("PASS") for line in lines):
            faults.append("no PASS line")
        return faults

    # --- traced run ---------------------------------------------------------

    def layer_metrics(self, passes):
        def total(key):
            return per_pass(passes, lambda rows: sum(r.info["spans"][key] for r in rows))

        rows = [row for rows in passes for row in rows]
        return {
            "klctrl.import_s": (median([r.info["spans"]["klctrl.import_s"] for r in rows]), "s"),
            "problem_io.load_s": (total("problem_io.load_s"), "s"),
            "cli.serialize_s": (total("cli.serialize_s"), "s"),
            "cli.output_mb": (per_pass(passes, lambda rs: sum(r.info["output_mb"] for r in rs)), "MB"),
            "verify.run_checks_s": (total("verify.run_checks_s"), "s"),
            "model.validate_s.cli": (total("model.validate_s"), "s"),
        }


def _output_json(path):
    """A command's JSON output, read strictly. Output that is not JSON (NaN or
    Infinity literals included) makes the op a failed one."""
    try:
        return ref.strict_json(path.read_text())
    except ValueError as exc:
        raise Failed(f"{path.name} is not strict JSON: {exc}") from exc


def _read_solution_csv(path, t):
    """V, pi and tau tables from klctrl's CSV solution layout."""
    T, S, A = t.horizon, t.num_states, t.num_actions
    V = np.full((T + 1, S), np.nan)
    pi = np.full((T, S, A), np.nan)
    tau = np.full((T, S, A, S), np.nan)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        next(rows)
        next(rows)
        for table, ts, xs, us, ys, value in rows:
            if table == "V":
                V[int(ts), int(xs)] = float(value)
            elif table == "pi":
                pi[int(ts), int(xs), int(us)] = float(value)
            elif table == "tau":
                tau[int(ts), int(xs), int(us), int(ys)] = float(value)
    return V, pi, tau


WORKLOAD = CliWorkload
