"""What every workload provides to the harness in run.py.

A workload's constructor is its set-up: it builds the inputs (and, for the
in-process workloads, imports klctrl). ``calls`` is one pass over a fixed
list; every call's output is checked after its timing stops.
"""

from __future__ import annotations

import importlib
import resource
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

ORDER = ("cli", "ladder", "iterate", "sample")
WORK_DIR = Path("perfbench") / "work"


class Failed(Exception):
    """Raised by a check when the op's output is unusable: the op counts as
    failed, not as a wrong answer."""


@dataclass
class Call:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], list]  # fault descriptions; empty when correct
    info: Callable[[Any], dict] = field(default=lambda out: {})


@dataclass
class Row:
    """One timed call of a traced pass."""

    label: str
    seconds: float
    layers: dict  # tracer key -> (seconds, count) spent inside this call
    info: dict


class Workload:
    name = ""
    op_is_pass = True  # one op is a whole pass; otherwise one op per call
    traced = False
    calls: list

    def install(self, tracer) -> None:
        """Wrap the klctrl names whose calls the traced run times."""

    def layer_metrics(self, passes) -> dict:
        """name -> (value, unit) from traced passes (lists of Row)."""
        return {}

    def peak_rss_mb(self, rows) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def load(name):
    """The workload class, imported on demand so that the cli set-up never
    imports klctrl."""
    module = importlib.import_module(f"wl_{name}")
    return module.WORKLOAD


def median(values):
    return statistics.median(values)


def per_pass(passes, fn):
    """Median over passes of ``fn(rows of one pass)``."""
    return median([fn(rows) for rows in passes])


def layer_seconds(rows, key):
    return sum(row.layers.get(key, (0.0, 0))[0] for row in rows)


def layer_count(rows, key):
    return sum(row.layers.get(key, (0.0, 0))[1] for row in rows)


def pass_seconds(rows):
    return sum(row.seconds for row in rows)
