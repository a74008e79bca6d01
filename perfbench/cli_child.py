"""Run one klctrl command with its layer calls timed (the cli traced run).

Usage: python perfbench/cli_child.py SPANS_JSON KLCTRL_ARGS...

Times the fresh-interpreter ``import klctrl``, then wraps the names that
``klctrl.cli`` imports from other modules and runs ``klctrl.cli.main``. The
serialize time is the command's self time after its solver returns. Exits
with the command's exit code.
"""

import time

_start = time.perf_counter()
import klctrl  # noqa: E402,F401  (the timed import)

_imported = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from klctrl import cli  # noqa: E402

import spans  # noqa: E402

SOLVERS = ("solve_formulation", "mm_solve", "em_solve", "path_integral_estimate", "compose")


def main(spans_path, argv):
    tracer = spans.Tracer()
    tracer.wrap(cli, "load_problem", "problem_io.load")
    tracer.wrap(cli, "validate_problem", "model.validate")
    tracer.wrap(cli, "run_checks", "verify.run_checks")
    for name in SOLVERS:
        tracer.wrap(cli, name, "solver")
    code = cli.main(argv)
    end = time.perf_counter()
    solver_end = max(
        (tracer.last_end[k] for k in ("solver", "verify.run_checks") if k in tracer.last_end),
        default=end,
    )
    record = {
        "klctrl.import_s": _imported - _start,
        "problem_io.load_s": tracer.seconds.get("problem_io.load", 0.0),
        "model.validate_s": tracer.seconds.get("model.validate", 0.0),
        "verify.run_checks_s": tracer.seconds.get("verify.run_checks", 0.0),
        "cli.serialize_s": end - solver_end,
    }
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
