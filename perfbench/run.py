"""klctrl benchmark: one closed-loop caller, one workload per process.

Usage:
    python3 perfbench/run.py --workload {cli,ladder,iterate,sample} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; klctrl is taken from its ``src``. With
``--trace 0`` the run prints the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` the per-layer ones. The last line of standard output is the
result object: correct, attempted, failed and metrics. See README.md.
"""

from __future__ import annotations

import os

# One caller drives one op at a time on a small machine: BLAS worker threads
# would only spin on the other core and add noise. Set before numpy loads;
# set-up probes and cli children inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import compileall
import json
import platform
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import workload
from spans import Tracer
from workload import ORDER, WORK_DIR, Row, median

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
PROBE_TIMEOUT_S = 120


@dataclass
class Loop:
    op_seconds: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    timed: float = 0.0
    faults: list = field(default_factory=list)
    passes: list = field(default_factory=list)  # per pass, the Rows of calls that returned


def run_loop(wl, seconds, tracer=None):
    """Whole passes over ``wl.calls`` until ``seconds`` of call time are spent.

    Only the call itself is timed; its output is checked afterwards."""
    loop = Loop()
    while True:
        rows = []
        pass_seconds = 0.0
        pass_failed = False
        for call in wl.calls:
            snap = tracer.snapshot() if tracer else None
            start = time.perf_counter()
            try:
                out = call.run()
            except Exception as exc:  # a failed op is counted, and the run goes on
                took = time.perf_counter() - start
                print(f"perfbench: {wl.name} {call.label} failed: {exc!r}", file=sys.stderr)
                failed = True
            else:
                took = time.perf_counter() - start
                failed = False
                try:
                    loop.faults += call.check(out)
                except workload.Failed as exc:
                    print(f"perfbench: {wl.name} {call.label} failed: {exc}", file=sys.stderr)
                    failed = True
                except Exception as exc:
                    loop.faults.append(f"{call.label}: check raised {exc!r}")
                rows.append(Row(call.label, took, tracer.since(snap) if tracer else {}, call.info(out)))
                del out
            pass_seconds += took
            pass_failed = pass_failed or failed
            if not wl.op_is_pass:
                loop.op_seconds.append(took)
                loop.attempted += 1
                loop.failed += failed
        if wl.op_is_pass:
            loop.op_seconds.append(pass_seconds)
            loop.attempted += 1
            loop.failed += pass_failed
        loop.timed += pass_seconds
        loop.passes.append(rows)
        if loop.timed >= seconds:
            return loop


def warm_up(wl):
    """One untimed op: a whole pass, or the first command for cli."""
    for call in wl.calls if wl.op_is_pass else wl.calls[:1]:
        try:
            call.run()
        except Exception:  # the timed loop counts and reports the failure
            pass


def setup_seconds(name, seed):
    """Median over fresh interpreters of the workload's set-up time."""
    probe = Path(__file__).resolve().parent / "probe_setup.py"
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(probe), name, str(seed)],
            capture_output=True, text=True, cwd=ROOT, timeout=PROBE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr[-500:]}")
        times.append(float(proc.stdout.split()[-1]))
    return median(times)


def environment():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
    }


def timed_run(name, seed, seconds):
    setup = setup_seconds(name, seed)
    wl = workload.load(name)(ROOT, seed)
    warm_up(wl)
    loop = run_loop(wl, seconds)
    rows = [row for rows in loop.passes for row in rows]
    values = {
        "setup_s": (setup, "s"),
        "op_p50_s": (median(loop.op_seconds), "s"),
        "ops_per_s": ((loop.attempted - loop.failed) / loop.timed, "1/s"),
        "peak_rss_mb": (wl.peak_rss_mb(rows), "MB"),
    }
    return loop, values


def traced_run(name, seed, seconds):
    """Per-layer metrics: the named workload traced for half the run (after
    an untraced half for the tracing overhead), every other one for a pass.

    ``attempted`` and ``failed`` count the named workload's ops only, so the
    failed share is the same as in its untraced runs; the other workloads'
    passes add their metrics and their output checks."""
    workloads = {n: workload.load(n)(ROOT, seed) for n in ORDER}
    main_wl = workloads[name]
    warm_up(main_wl)
    untraced = run_loop(main_wl, seconds / 2)
    total = Loop(attempted=untraced.attempted, failed=untraced.failed, faults=untraced.faults)
    values = {}
    for n in ORDER:
        wl = workloads[n]
        if n != name:
            warm_up(wl)
        tracer = Tracer()
        wl.install(tracer)
        wl.traced = True
        try:
            loop = run_loop(wl, seconds / 2 if n == name else 0.0, tracer)
        finally:
            tracer.restore()
            wl.traced = False
        total.faults += loop.faults
        total.passes += loop.passes
        values.update(wl.layer_metrics(loop.passes))
        if n == name:
            total.attempted += loop.attempted
            total.failed += loop.failed
            overhead = median(loop.op_seconds) - median(untraced.op_seconds)
    values["trace.overhead_s"] = (overhead, "s")
    return total, values


def select(spec_metrics, values):
    """The metrics BENCHMARK.json names, in its order, with its units."""
    names = [m["name"] for m in spec_metrics]
    if set(names) != set(values):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: missing {sorted(set(names) - set(values))}, "
            f"extra {sorted(set(values) - set(names))}"
        )
    out = {}
    for m in spec_metrics:
        value, unit = values[m["name"]]
        if unit != m["unit"]:
            raise RuntimeError(f"{m['name']}: unit {unit} != {m['unit']}")
        out[m["name"]] = {"value": value, "unit": unit}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=ORDER)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    src = ROOT / "src" / "klctrl"
    if not (src / "__init__.py").is_file():
        print(f"perfbench: no klctrl sources at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    compileall.compile_dir(str(src), quiet=1)
    compileall.compile_dir(str(Path(__file__).resolve().parent), quiet=1, maxlevels=0)
    shutil.rmtree(ROOT / WORK_DIR, ignore_errors=True)
    (ROOT / WORK_DIR).mkdir(parents=True)

    if args.trace:
        loop, values = traced_run(args.workload, args.seed, args.seconds)
        metrics = select(spec["per_layer"], values)
    else:
        loop, values = timed_run(args.workload, args.seed, args.seconds)
        metrics = select(spec["end_to_end"], values)
    for fault in loop.faults:
        print(f"perfbench: wrong output: {fault}", file=sys.stderr)
    info = dict(environment(), workload=args.workload, seed=args.seed, trace=args.trace,
                passes=len(loop.passes))
    print("perfbench env " + json.dumps(info))
    print(json.dumps({
        "correct": not loop.faults,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
