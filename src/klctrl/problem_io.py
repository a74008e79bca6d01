"""Problem file loading and dumping.

A problem file is a JSON document with the model tables, optional KL weights
and optional compositional components.  Per-stage tables may be given once
with ``"time_homogeneous": true`` and are then stored once, as a stride-0 view
over the horizon.  Unknown and duplicate keys are rejected so typos never pass
silently, and so are the non-standard ``NaN``/``Infinity`` literals of json.
Fields are never coerced: counts must be JSON integers, the homogeneity flag
a JSON boolean, and weights and table entries JSON numbers.
"""

from __future__ import annotations

import json
from importlib import resources
from itertools import chain
from typing import Optional, Tuple

import numpy as np

from .desirability import ComponentSet
from .model import ControlProblem, Policy, ProblemValidationError, TransitionKernel

REQUIRED_KEYS = {
    "horizon",
    "num_states",
    "num_actions",
    "initial_distribution",
    "transitions",
    "stage_costs",
    "terminal_cost",
}
OPTIONAL_KEYS = {
    "time_homogeneous",
    "baseline_policy",
    "lambda_p",
    "lambda_s",
    "components",
}


class ProblemFormatError(ValueError):
    """The document does not conform to the problem-file schema."""


def _reject_constant(name):
    raise ProblemFormatError(f"non-finite literal {name} is not allowed")


def _unique_keys(pairs):
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ProblemFormatError(f"duplicate key {key!r}")
        doc[key] = value
    return doc


def _scalar(name, value, types, kind):
    """``value`` if it is of ``types``; a bool passes only as a boolean."""
    if not isinstance(value, types) or (isinstance(value, bool) and types is not bool):
        raise ProblemFormatError(f"{name} must be a JSON {kind}, got {value!r}")
    return value


def _table(name, value) -> np.ndarray:
    """Read-only float array of a JSON table, in one conversion; refuses non-numbers."""
    arr = np.asarray(value)
    if arr.dtype.kind == "O" and set(map(type, arr.ravel())) <= {int, float}:
        # numpy holds an integer past 64 bits only as a Python object
        raise ProblemFormatError(f"{name} holds an integer out of range (past 64 bits)")
    if arr.dtype.kind not in "iuf" or (arr.ndim and _holds_a_bool(value, arr)):
        raise ProblemFormatError(f"{name} must hold JSON numbers only")
    arr = arr.astype(float, copy=False)
    if arr is not value:  # an array passed in stays its caller's
        arr.flags.writeable = False
    return arr


def _holds_a_bool(value, arr) -> bool:
    """Whether the nested lists ``value``, which numpy read as the numbers
    ``arr``, hold a JSON true or false.

    numpy reads a boolean among numbers as 1 or 0, so only a table with an
    entry equal to 0 or 1 is scanned for one.
    """
    if not ((arr == 0) | (arr == 1)).any():
        return False
    for _ in range(arr.ndim - 1):
        value = chain.from_iterable(value)
    return bool in set(map(type, value))


def _expand(name, value, homogeneous_shape, full_shape, time_homogeneous):
    arr = _table(name, value)
    if arr.shape == full_shape:
        return arr
    if arr.shape == (0,) and full_shape[0] == 0:
        # a horizon-0 table has no stages, and json writes it as []
        return arr.reshape(full_shape)
    if arr.shape == homogeneous_shape:
        if not time_homogeneous:
            raise ProblemFormatError(
                f"{name} is stage-free but \"time_homogeneous\" is not set"
            )
        return np.broadcast_to(arr, full_shape)
    raise ProblemFormatError(
        f"{name} has shape {arr.shape}; expected {full_shape} or {homogeneous_shape}"
    )


def parse_problem(doc: dict) -> Tuple[ControlProblem, Optional[ComponentSet]]:
    if not isinstance(doc, dict):
        raise ProblemFormatError("problem file must be a JSON object")
    unknown = set(doc) - REQUIRED_KEYS - OPTIONAL_KEYS
    if unknown:
        raise ProblemFormatError(f"unknown keys: {sorted(unknown)}")
    missing = REQUIRED_KEYS - set(doc)
    if missing:
        raise ProblemFormatError(f"missing keys: {sorted(missing)}")
    T, S, A = (_scalar(k, doc[k], int, "integer") for k in ("horizon", "num_states", "num_actions"))
    homogeneous = _scalar("time_homogeneous", doc.get("time_homogeneous", False), bool, "boolean")
    try:
        transitions = _expand(
            "transitions", doc["transitions"], (S, A, S), (T, S, A, S), homogeneous
        )
        stage_costs = _expand(
            "stage_costs", doc["stage_costs"], (S, A), (T, S, A), homogeneous
        )
        policy_doc = doc.get("baseline_policy")
        if policy_doc is None:
            baseline_policy = np.full((T, S, A), 1.0 / A)
        else:
            baseline_policy = _expand(
                "baseline_policy", policy_doc, (S, A), (T, S, A), homogeneous
            )
        initial = _table("initial_distribution", doc["initial_distribution"])
        terminal = _table("terminal_cost", doc["terminal_cost"])
        if initial.shape != (S,):
            raise ProblemFormatError("initial_distribution must have one entry per state")
        if terminal.shape != (S,):
            raise ProblemFormatError("terminal_cost must have one entry per state")
        lam_p, lam_s = (
            None if doc.get(key) is None else float(_scalar(key, doc[key], (int, float), "number"))
            for key in ("lambda_p", "lambda_s")
        )
        problem = ControlProblem(
            horizon=T,
            num_states=S,
            num_actions=A,
            initial_distribution=initial,
            baseline_kernels=TransitionKernel(transitions),
            baseline_policy=Policy(baseline_policy),
            stage_costs=stage_costs,
            terminal_cost=terminal,
            lambda_p=lam_p,
            lambda_s=lam_s,
        )
        components = None
        if "components" in doc:
            entries = doc["components"]
            if not isinstance(entries, list) or not entries:
                raise ProblemFormatError("components must be a nonempty list")
            costs, gammas = [], []
            for i, entry in enumerate(entries):
                if not isinstance(entry, dict) or set(entry) != {"terminal_cost", "gamma"}:
                    raise ProblemFormatError(
                        f"components[{i}] must be an object with exactly terminal_cost and gamma"
                    )
                tc = _table(f"components[{i}].terminal_cost", entry["terminal_cost"])
                if tc.shape != (S,):
                    raise ProblemFormatError(
                        f"components[{i}].terminal_cost must have one entry per state"
                    )
                costs.append(tc)
                gamma = _scalar(f"components[{i}].gamma", entry["gamma"], (int, float), "number")
                gammas.append(float(gamma))
            components = ComponentSet(np.stack(costs), np.asarray(gammas))
    except (ProblemFormatError, ProblemValidationError):
        raise
    except (TypeError, ValueError) as exc:
        # a ragged table or an impossible count surfaces as ValueError from
        # numpy or ControlProblem
        raise ProblemFormatError(str(exc)) from exc
    return problem, components


def load_problem(path) -> Tuple[ControlProblem, Optional[ComponentSet]]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh, parse_constant=_reject_constant, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as exc:
            raise ProblemFormatError(f"invalid JSON: {exc}") from exc
    return parse_problem(doc)


def problem_to_dict(
    problem: ControlProblem, components: Optional[ComponentSet] = None
) -> dict:
    doc = {
        "horizon": problem.horizon,
        "num_states": problem.num_states,
        "num_actions": problem.num_actions,
        "initial_distribution": problem.initial_distribution.tolist(),
        "transitions": problem.baseline_kernels.table.tolist(),
        "stage_costs": problem.stage_costs.tolist(),
        "terminal_cost": problem.terminal_cost.tolist(),
        "baseline_policy": problem.baseline_policy.table.tolist(),
    }
    if problem.lambda_p is not None:
        doc["lambda_p"] = problem.lambda_p
    if problem.lambda_s is not None:
        doc["lambda_s"] = problem.lambda_s
    if components is not None:
        doc["components"] = [
            {"terminal_cost": tc.tolist(), "gamma": float(g)}
            for tc, g in zip(components.terminal_costs, components.gammas)
        ]
    return doc


def write_json(path, payload) -> None:
    """Write ``payload`` as compact strict JSON; numpy arrays are written as
    nested lists.  The whole document is encoded before the file is opened,
    so a non-finite value raises ValueError and leaves any file at ``path``
    as it was.  Floats are written with repr, which round-trips exactly."""
    text = json.dumps(payload, allow_nan=False, default=np.ndarray.tolist)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def dump_problem(problem: ControlProblem, path, components=None) -> None:
    write_json(path, problem_to_dict(problem, components))


def bundled_problem_path(name: str):
    """Path to one of the example problems shipped with the package."""
    path = resources.files("klctrl").joinpath("problems", f"{name}.json")
    if not path.is_file():
        raise FileNotFoundError(f"no bundled problem named {name!r}")
    return path


def load_bundled_problem(name: str):
    return load_problem(bundled_problem_path(name))
