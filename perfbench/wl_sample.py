"""sample: in-process path-integral Monte Carlo estimates of z_0(x).

The sampler draws all of its uniforms (N * T * 16 bytes) before it chunks,
so those draws set peak memory. No backward pass runs in the timed region:
the reference z comes from the benchmark's own linear recursion.
"""

from __future__ import annotations

import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np

import klctrl
from klctrl import desirability as kd

import reference as ref
from problems import random_tables, read_problem_file, to_problem
from workload import Call, Workload, pass_seconds, per_pass

LAMBDA = 1.0
SAMPLES = 200_000
ALT_CHUNK = 10_000  # the result must not depend on the chunk size
MAX_SE = 5.0
SYNTHETIC = (10, 3, 20)  # S, A, T


class SampleWorkload(Workload):
    name = "sample"

    def __init__(self, root, seed):
        self.seed = seed
        self.chain5_path = Path(root) / "src" / "klctrl" / "problems" / "chain5.json"
        S, A, T = SYNTHETIC
        synthetic = random_tables(
            np.random.default_rng(seed), S, A, T, sparse=True,
            lambda_p=LAMBDA, lambda_s=LAMBDA, cost_scale=0.2,
        )
        self.tables = {"synthetic": synthetic}
        self.problems = {
            "chain5": klctrl.load_problem(self.chain5_path)[0],
            "synthetic": to_problem(synthetic),
        }
        self._expected = {}
        self.calls = [
            Call(
                name,
                partial(self._estimate, name),
                partial(self._check, name),
                lambda out, T=p.horizon: {"steps": SAMPLES * T},
            )
            for name, p in self.problems.items()
        ]

    def _estimate(self, name, chunk_size=65536):
        return kd.path_integral_estimate(
            self.problems[name], LAMBDA, 0, 0, SAMPLES, self.seed, chunk_size=chunk_size
        )

    def _check(self, name, out):
        if name not in self._expected:
            if name not in self.tables:
                self.tables[name] = read_problem_file(self.chain5_path)
            t = self.tables[name]
            z = ref.desirability(t, LAMBDA, np.exp(-LAMBDA * t.terminal))[0, 0]
            self._expected[name] = (z, self._estimate(name, ALT_CHUNK))
        z, other_chunking = self._expected[name]
        estimate, stderr = out
        faults = []
        if not (np.isfinite(estimate) and stderr > 0):
            faults.append(f"estimate {estimate!r}, standard error {stderr!r}")
        elif abs(estimate - z) > MAX_SE * stderr:
            faults.append(f"estimate {estimate!r} is {abs(estimate - z) / stderr:.1f} SE from z {z!r}")
        if out != other_chunking:
            faults.append(f"chunk size {ALT_CHUNK} gives {other_chunking!r}, not {out!r}")
        return [f"{name}: {f}" for f in faults]

    def layer_metrics(self, passes):
        tracemalloc.start()
        try:
            self._estimate("synthetic")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return {
            "desirability.sample_s": (per_pass(passes, pass_seconds), "s"),
            "desirability.sample_steps_per_s": (
                per_pass(passes, lambda r: sum(row.info["steps"] for row in r) / pass_seconds(r)),
                "1/s",
            ),
            "desirability.sample_traced_peak_mb": (peak / 2**20, "MB"),
        }


WORKLOAD = SampleWorkload
