"""Command-line front end.

Exit codes: 0 success, 1 validation/format failure (details on stderr),
2 enumeration cap exceeded.
"""

from __future__ import annotations

import argparse
import csv
import sys

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
    return {
        "formulation": solution.formulation.value,
        "V": solution.V.tolist(),
        "Q": solution.Q.tolist(),
        "pi": solution.pi_star.table.tolist(),
        "tau": solution.tau_star.table.tolist(),
    }


def _write_solution_csv(path, solution) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["formulation", solution.formulation.value, "", "", "", ""])
        writer.writerow(["table", "t", "x", "u", "x_next", "value"])
        for t in range(solution.V.shape[0]):
            for x in range(solution.V.shape[1]):
                writer.writerow(["V", t, x, "", "", repr(float(solution.V[t, x]))])
        T, S, A = solution.Q.shape
        for t in range(T):
            for x in range(S):
                for u in range(A):
                    writer.writerow(["Q", t, x, u, "", repr(float(solution.Q[t, x, u]))])
                    writer.writerow(
                        ["pi", t, x, u, "", repr(float(solution.pi_star.table[t, x, u]))]
                    )
                    for y in range(S):
                        writer.writerow(
                            ["tau", t, x, u, y, repr(float(solution.tau_star.table[t, x, u, y]))]
                        )


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


def _cmd_solve(args) -> int:
    problem, _ = _load(args.problem)
    if args.dump_problem:
        dump_problem(problem, args.dump_problem)
    form = _FORM_FLAGS[args.formulation]
    solution = solve_formulation(problem, form, synchronized=args.sync)
    if args.format == "json":
        write_json(args.out, _solution_payload(solution))
    else:
        _write_solution_csv(args.out, solution)
    return EXIT_OK


def _cmd_mm(args) -> int:
    problem, _ = _load(args.problem)
    solution, trace = mm_solve(
        problem, args.target, args.lambda_p, args.tol, args.max_iters
    )
    write_json(
        args.out,
        {
            "target": args.target,
            "converged": trace.converged,
            "iterations": trace.iterations,
            "solution": _solution_payload(solution),
            "trace": _trace_payload(trace),
        },
    )
    return EXIT_OK


def _cmd_em(args) -> int:
    problem, _ = _load(args.problem)
    policy, trace = em_solve(problem, args.lam, args.tol, args.max_iters)
    write_json(
        args.out,
        {
            "converged": trace.converged,
            "iterations": trace.iterations,
            "pi": policy.table.tolist(),
            "trace": _trace_payload(trace),
        },
    )
    return EXIT_OK


def _cmd_sample_z(args) -> int:
    problem, _ = _load(args.problem)
    estimate, stderr = path_integral_estimate(
        problem,
        args.lam,
        args.t,
        args.state,
        args.samples,
        args.seed,
        chunk_size=args.chunk_size,
    )
    write_json(
        args.out,
        {
            "t": args.t,
            "state": args.state,
            "samples": args.samples,
            "seed": args.seed,
            "estimate": estimate,
            "standard_error": stderr,
        },
    )
    return EXIT_OK


def _cmd_compose(args) -> int:
    problem, components = _load(args.problem)
    if components is None:
        print("problem file has no \"components\" section", file=sys.stderr)
        return EXIT_INVALID
    result = compose(problem, components, args.lam)
    write_json(
        args.out,
        {
            "lambda": args.lam,
            "z": result.composite.z.tolist(),
            "weights": result.weights.tolist(),
            "component_policies": [p.table.tolist() for p in result.component_policies],
            "mixture_policy": result.mixture_policy.table.tolist(),
        },
    )
    return EXIT_OK


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
        help="use the synchronized policy weight |lambda_s| for sp-rsoc",
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
        help="samples drawn and rolled out at once; bounds memory and does not change the result",
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
    verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EnumerationCapError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CAP
    except (ValueError, FileNotFoundError) as exc:
        # a ProblemValidationError carries its violations, one per line
        for line in getattr(exc, "violations", [str(exc)]):
            print(line, file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
