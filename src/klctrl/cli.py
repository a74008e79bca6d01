"""Command-line front end.

Exit codes: 0 success, 1 validation/format failure or an output path that
cannot be written (details on stderr), 2 enumeration cap exceeded.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .desirability import compose, path_integral_estimate
from .iterate import em_solve, mm_solve
from .model import ProblemValidationError, validate_problem
from .oracle import EnumerationCapError
from .problem_io import dump_problem, load_problem, write_json
from .solvers import Formulation, solve_formulation
from .verify import run_checks

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_CAP = 2

_FORM_FLAGS = {f.value.replace("_", "-"): f for f in Formulation}


def _load(path):
    problem, components = load_problem(path)
    violations = validate_problem(problem)
    if violations:
        raise ProblemValidationError(violations)
    return problem, components


def _solution_payload(solution) -> dict:
    """A solution's output tables, by name; the CSV writer walks them in this order."""
    return {
        "formulation": solution.formulation.value,
        "V": solution.V,
        "Q": solution.Q,
        "pi": solution.pi_star.table,
        "tau": solution.tau_star.table,
    }


def _write_solution_csv(path, payload) -> None:
    """Write a solution payload as CSV: a formulation line, a header line, then
    one row per table entry, table by table (V, Q, pi, tau), stage by stage.
    Each row is padded to the four index columns t, x, u, x_next; values are
    written with repr, which round-trips exactly.  Each stage is written as
    one string, so memory holds one stage's text.  A non-finite entry raises
    ValueError before the file is opened, as in ``write_json``."""
    tables = {name: table for name, table in payload.items() if name != "formulation"}
    for name, table in tables.items():
        if not np.isfinite(table).all():
            raise ValueError(f"{name} holds a non-finite value, which CSV output refuses")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"formulation,{payload['formulation']},,,,\r\ntable,t,x,u,x_next,value\r\n")
        for name, table in tables.items():
            index = np.indices(table.shape[1:]).reshape(table.ndim - 1, -1).T.tolist()
            tails = [",".join(map(str, i)) + "," * (5 - table.ndim) for i in index]
            for t, stage in enumerate(table):
                rows = zip(tails, stage.ravel().tolist())
                fh.write("".join(f"{name},{t},{tail}{v!r}\r\n" for tail, v in rows))


def _trace_payload(trace) -> list:
    return [
        {
            "iteration": i,
            "surrogate_objective": trace.surrogate_objective[i],
            "true_objective": trace.true_objective[i],
            "policy_delta": trace.policy_delta[i],
            "value_delta": trace.value_delta[i],
        }
        for i in range(trace.iterations)
    ]


def _cmd_solve(args, problem, components) -> dict:
    form = _FORM_FLAGS[args.formulation]
    return _solution_payload(solve_formulation(problem, form, synchronized=args.sync))


def _cmd_mm(args, problem, components) -> dict:
    solution, trace = mm_solve(
        problem, args.target, args.lambda_p, args.tol, args.max_iters
    )
    return {
        "target": args.target,
        "converged": trace.converged,
        "iterations": trace.iterations,
        "solution": _solution_payload(solution),
        "trace": _trace_payload(trace),
    }


def _cmd_em(args, problem, components) -> dict:
    policy, trace = em_solve(problem, args.lam, args.tol, args.max_iters)
    return {
        "converged": trace.converged,
        "iterations": trace.iterations,
        "pi": policy.table,
        "trace": _trace_payload(trace),
    }


def _cmd_sample_z(args, problem, components) -> dict:
    estimate, stderr = path_integral_estimate(
        problem,
        args.lam,
        args.t,
        args.state,
        args.samples,
        args.seed,
        chunk_size=args.chunk_size,
    )
    return {
        "t": args.t,
        "state": args.state,
        "samples": args.samples,
        "seed": args.seed,
        "estimate": estimate,
        "standard_error": stderr,
    }


def _cmd_compose(args, problem, components) -> dict:
    if components is None:
        raise ValueError("problem file has no \"components\" section")
    result = compose(problem, components, args.lam)
    return {
        "lambda": args.lam,
        "z": result.composite.z,
        "weights": result.weights,
        "component_policies": [p.table for p in result.component_policies],
        "mixture_policy": result.mixture_policy.table,
    }


def _cmd_verify(args) -> int:
    problem, components = load_problem(args.problem)
    results = run_checks(problem, components, seed=args.seed)
    failed = False
    for res in results:
        tag = res.status.upper()
        line = f"{tag} {res.name}"
        if res.detail:
            line += f" ({res.detail})"
        print(line)
        failed = failed or res.status == "fail"
    return EXIT_INVALID if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="klctrl",
        description="KL-regularized stochastic optimal control on tabular problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run one backward recursion")
    solve.add_argument("--problem", required=True)
    solve.add_argument(
        "--formulation", required=True, choices=sorted(_FORM_FLAGS)
    )
    solve.add_argument(
        "--sync",
        action="store_true",
        help="sp-rsoc only: use the synchronized policy weight |lambda_s|",
    )
    solve.add_argument("--out", required=True)
    solve.add_argument("--format", choices=["json", "csv"], default="json")
    solve.add_argument(
        "--dump-problem",
        metavar="PATH",
        help="also write the parsed problem back out as a problem file",
    )
    solve.set_defaults(func=_cmd_solve)

    mm = sub.add_parser("mm", help="majorize-minimize a classical objective")
    mm.add_argument("--problem", required=True)
    mm.add_argument("--target", required=True, choices=["soc", "rsoc"])
    mm.add_argument("--lambda-p", dest="lambda_p", type=float, required=True)
    mm.add_argument("--tol", type=float, required=True)
    mm.add_argument("--max-iters", dest="max_iters", type=int, required=True)
    mm.add_argument("--out", required=True)
    mm.set_defaults(func=_cmd_mm)

    em = sub.add_parser("em", help="expectation-maximization on the likelihood reading")
    em.add_argument("--problem", required=True)
    em.add_argument("--lambda", dest="lam", type=float, required=True)
    em.add_argument("--tol", type=float, required=True)
    em.add_argument("--max-iters", dest="max_iters", type=int, required=True)
    em.add_argument("--out", required=True)
    em.set_defaults(func=_cmd_em)

    sample = sub.add_parser("sample-z", help="path-integral estimate of z_t(x)")
    sample.add_argument("--problem", required=True)
    sample.add_argument("--lambda", dest="lam", type=float, required=True)
    sample.add_argument("--t", type=int, required=True)
    sample.add_argument("--state", type=int, required=True)
    sample.add_argument("--samples", type=int, required=True)
    sample.add_argument("--seed", type=int, required=True)
    sample.add_argument(
        "--chunk-size",
        dest="chunk_size",
        type=int,
        default=65536,
        help=(
            "samples drawn and rolled out at once, at most 8192; bounds memory "
            "and does not change the result"
        ),
    )
    sample.add_argument("--out", required=True)
    sample.set_defaults(func=_cmd_sample_z)

    comp = sub.add_parser("compose", help="compositional solve from components")
    comp.add_argument("--problem", required=True)
    comp.add_argument("--lambda", dest="lam", type=float, required=True)
    comp.add_argument("--out", required=True)
    comp.set_defaults(func=_cmd_compose)

    verify = sub.add_parser("verify", help="oracle cross-check suite on one instance")
    verify.add_argument("--problem", required=True)
    verify.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # numpy's overflow and invalid warnings stay off stderr: the row checks and
    # both writers already refuse every non-finite result by name
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            if args.command == "verify":
                return _cmd_verify(args)
            problem, components = _load(args.problem)
            payload = args.func(args, problem, components)
            write = _write_solution_csv if getattr(args, "format", None) == "csv" else write_json
            write(args.out, payload)
            # after the solution is written, so a refused solve or write leaves no dump
            if getattr(args, "dump_problem", None):
                dump_problem(problem, args.dump_problem)
            return EXIT_OK
        except EnumerationCapError as exc:
            print(str(exc), file=sys.stderr)
            return EXIT_CAP
        except (ValueError, OSError) as exc:
            # a ProblemValidationError carries its violations, one per line
            for line in getattr(exc, "violations", [str(exc)]):
                print(line, file=sys.stderr)
            return EXIT_INVALID


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
