"""Seeded problem generators and the benchmark's own problem-file reader/writer.

A ``Tables`` holds one finite-horizon problem as plain arrays. The benchmark
builds klctrl inputs from it (``to_problem`` or a problem file) and checks
klctrl outputs against the reference module on the same arrays, so the
reference never goes through klctrl's parser.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from reference import strict_json


@dataclass
class Tables:
    p0: np.ndarray  # (S,)
    iota: np.ndarray  # (T, S, A, S)
    rho: np.ndarray  # (T, S, A)
    costs: np.ndarray  # (T, S, A)
    terminal: np.ndarray  # (S,)
    lambda_p: Optional[float] = None
    lambda_s: Optional[float] = None
    components: Optional[list] = None  # [(terminal cost (S,), gamma)]

    @property
    def horizon(self) -> int:
        return self.rho.shape[0]

    @property
    def num_states(self) -> int:
        return self.rho.shape[1]

    @property
    def num_actions(self) -> int:
        return self.rho.shape[2]

    @property
    def entries(self) -> int:
        """T*S*A*S, the size of one (T, S, A, S) table."""
        return self.iota.size


def _rows(rng, shape, sparse):
    """Random probability rows over the last axis. Sparse rows drop about a
    third of their entries, never all of them; dense rows stay above 0.05."""
    w = rng.random(shape)
    if not sparse:
        w += 0.05
    else:
        keep = rng.random(shape) >= 1 / 3
        np.put_along_axis(keep, np.argmax(w, axis=-1)[..., None], True, axis=-1)
        w = np.where(keep, w, 0.0)
    return w / w.sum(axis=-1, keepdims=True)


def random_tables(
    rng,
    num_states,
    num_actions,
    horizon,
    *,
    sparse,
    lambda_p,
    lambda_s,
    cost_scale=1.0,
    single_start=False,
    homogeneous=False,
):
    """One random problem; ``homogeneous`` repeats stage 0 at every stage."""
    S, A = num_states, num_actions
    T = 1 if homogeneous else horizon
    iota = _rows(rng, (T, S, A, S), sparse)
    rho = _rows(rng, (T, S, A), sparse)
    costs = cost_scale * rng.random((T, S, A))
    if homogeneous:
        iota, rho, costs = (np.repeat(a, horizon, axis=0) for a in (iota, rho, costs))
    p0 = np.eye(S)[0] if single_start else _rows(rng, (S,), False)
    return Tables(p0, iota, rho, costs, rng.random(S), lambda_p, lambda_s)


def read_problem_file(path) -> Tables:
    """Read a klctrl problem file without klctrl: strict JSON, and stage-free
    tables repeated over the horizon when "time_homogeneous" is set."""
    with open(path, encoding="utf-8") as fh:
        doc = strict_json(fh.read())
    T, S, A = doc["horizon"], doc["num_states"], doc["num_actions"]

    def staged(key, stage_shape, default=None):
        arr = np.asarray(doc[key] if key in doc else default, dtype=float)
        if arr.shape == stage_shape:
            return np.repeat(arr[None], T, axis=0)
        return arr.reshape((T,) + stage_shape)

    components = None
    if "components" in doc:
        components = [
            (np.asarray(c["terminal_cost"], dtype=float), float(c["gamma"]))
            for c in doc["components"]
        ]
    return Tables(
        p0=np.asarray(doc["initial_distribution"], dtype=float),
        iota=staged("transitions", (S, A, S)),
        rho=staged("baseline_policy", (S, A), np.full((S, A), 1.0 / A)),
        costs=staged("stage_costs", (S, A)),
        terminal=np.asarray(doc["terminal_cost"], dtype=float),
        lambda_p=doc.get("lambda_p"),
        lambda_s=doc.get("lambda_s"),
        components=components,
    )


def write_problem_file(tables: Tables, path, homogeneous=False) -> None:
    """Write a problem file, with stage-free tables when ``homogeneous``."""
    stage = (lambda a: a[0]) if homogeneous else (lambda a: a)
    doc = {
        "horizon": tables.horizon,
        "num_states": tables.num_states,
        "num_actions": tables.num_actions,
        "time_homogeneous": homogeneous,
        "initial_distribution": tables.p0.tolist(),
        "transitions": stage(tables.iota).tolist(),
        "stage_costs": stage(tables.costs).tolist(),
        "terminal_cost": tables.terminal.tolist(),
        "baseline_policy": stage(tables.rho).tolist(),
        "lambda_p": tables.lambda_p,
        "lambda_s": tables.lambda_s,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def to_problem(tables: Tables):
    """The klctrl ControlProblem for these tables."""
    from klctrl import ControlProblem, Policy, TransitionKernel

    return ControlProblem(
        horizon=tables.horizon,
        num_states=tables.num_states,
        num_actions=tables.num_actions,
        initial_distribution=tables.p0,
        baseline_kernels=TransitionKernel(tables.iota),
        baseline_policy=Policy(tables.rho),
        stage_costs=tables.costs,
        terminal_cost=tables.terminal,
        lambda_p=tables.lambda_p,
        lambda_s=tables.lambda_s,
    )
