"""The benchmark's traced run wraps klctrl names by attribute.

``perfbench/run.py --trace 1`` replaces names such as
``klctrl.solvers.validate_problem`` with timed wrappers.  A klctrl change that
removes or renames one of them fails here, not only in a traced run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
SPAN_KEYS = {
    "klctrl.import_s",
    "problem_io.load_s",
    "model.validate_s",
    "verify.run_checks_s",
    "cli.serialize_s",
}


@pytest.mark.parametrize("name", ["ladder", "iterate", "sample"])
def test_traced_workload_wraps_and_restores_its_names(monkeypatch, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    import workload

    wl = workload.load(name)(ROOT, 1)
    tracer = spans.Tracer()
    wl.install(tracer)
    wrapped = list(tracer._undo)
    tracer.restore()
    for module, attr, original in wrapped:
        assert getattr(module, attr) is original


@pytest.mark.parametrize(
    "command",
    [["verify"], ["solve", "--formulation", "central", "--format", "csv"]],
    ids=["verify", "solve-csv"],
)
def test_traced_cli_child_writes_every_span(tmp_path, command):
    spans_path = tmp_path / "spans.json"
    problem = ROOT / "src" / "klctrl" / "problems" / "m1.json"
    argv = command + ["--problem", str(problem)]
    if command[0] == "solve":
        argv += ["--out", str(tmp_path / "sol.csv")]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "cli_child.py"), str(spans_path), *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert set(json.loads(spans_path.read_text())) == SPAN_KEYS
