import dataclasses
import tracemalloc

import numpy as np
import pytest

from klctrl import desirability
from klctrl import (
    ComponentSet,
    Desirability,
    Policy,
    ProblemValidationError,
    TransitionKernel,
    compose,
    em_solve,
    from_desirability,
    linear_backward,
    load_bundled_problem,
    path_integral_estimate,
    policy_from_desirability,
    solve_central,
    to_desirability,
)
from klctrl.problem_io import parse_problem, problem_to_dict

from conftest import make_m1, random_problem, sparse_problem

M1_Z0 = 0.5 * (1 + np.exp(-1))


def sync(problem, lam):
    return problem.replace(lambda_p=lam, lambda_s=lam)


def test_zero_costs_give_unit_desirability(rng):
    problem = random_problem(rng)
    problem = problem.replace(
        stage_costs=np.zeros_like(problem.stage_costs),
        terminal_cost=np.zeros_like(problem.terminal_cost),
    )
    d = linear_backward(problem, 1.0)
    np.testing.assert_allclose(d.z, 1.0, atol=1e-12)


def test_m1_desirability(m1):
    d = linear_backward(m1, 1.0)
    np.testing.assert_allclose(d.z[1], [np.exp(-1), 1.0], atol=1e-14)
    assert d.z[0, 0] == pytest.approx(M1_Z0, abs=1e-14)
    assert d.z[0, 0] == pytest.approx(0.683940, abs=1e-6)


def test_linear_backward_matches_the_nonlinear_recursion(rng):
    for lam in (0.1, 1.0, 10.0):
        for _ in range(20):
            problem = random_problem(rng)
            d = linear_backward(problem, lam)
            central = solve_central(sync(problem, lam))
            np.testing.assert_allclose(d.values(), central.V, atol=1e-9)


def test_policy_matches_the_nonlinear_policy(rng):
    for _ in range(20):
        lam = float(rng.uniform(0.3, 2.0))
        problem = random_problem(rng)
        d = linear_backward(problem, lam)
        pi = policy_from_desirability(problem, d)
        central = solve_central(sync(problem, lam))
        np.testing.assert_allclose(pi.table, central.pi_star.table, atol=1e-9)


def test_policy_on_m1(m1):
    pi = policy_from_desirability(m1, linear_backward(m1, 1.0))
    assert pi.table[0, 0, 1] == pytest.approx(1 / (1 + np.exp(-1)), abs=1e-12)


def test_inconsistent_table_is_rejected(m1):
    d = linear_backward(m1, 1.0)
    broken = to_desirability(d.values() + np.array([0.3, 0.0]), 1.0)
    with pytest.raises(ValueError):
        policy_from_desirability(m1, broken)


@pytest.mark.parametrize("cost, way", [(1.5e308, "underflows"), (-1.5e308, "overflows")])
def test_a_desirability_past_the_float_range_names_the_costs(m1, cost, way):
    # each cost is finite, but the two along a path sum past the float range
    huge = m1.replace(
        stage_costs=np.full(m1.stage_costs.shape, cost),
        terminal_cost=np.full(m1.terminal_cost.shape, cost),
    )
    message = rf"^log z_0\(1\) is nan: exp\(-lam \* cost\) {way} at lam = 1$"
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match=message):
        policy_from_desirability(huge, linear_backward(huge, 1.0))


def test_transform_round_trip(rng):
    values = rng.uniform(-2.0, 5.0, size=(4, 3))
    for lam in (0.2, 1.0, 7.0):
        np.testing.assert_allclose(
            from_desirability(to_desirability(values, lam)), values, atol=1e-12
        )


def test_negative_lambda_is_rejected(m1):
    with pytest.raises(ValueError):
        linear_backward(m1, -1.0)
    with pytest.raises(ValueError):
        to_desirability(np.zeros((2, 2)), 0.0)


def test_superposition_of_terminal_desirabilities(rng):
    # the backward map is linear in z_T: solving from a positive combination
    # of terminal tables equals the same combination of the solutions.
    for _ in range(20):
        problem = random_problem(rng)
        lam = 1.0
        c1 = rng.uniform(0.0, 2.0, size=problem.num_states)
        c2 = rng.uniform(0.0, 2.0, size=problem.num_states)
        a, b = float(rng.uniform(0.1, 2.0)), float(rng.uniform(0.1, 2.0))
        z1 = linear_backward(problem.replace(terminal_cost=c1), lam).z
        z2 = linear_backward(problem.replace(terminal_cost=c2), lam).z
        mix_T = a * np.exp(-lam * c1) + b * np.exp(-lam * c2)
        mixed = linear_backward(
            problem.replace(terminal_cost=-np.log(mix_T) / lam), lam
        ).z
        np.testing.assert_allclose(mixed, a * z1 + b * z2, atol=1e-12)


def test_path_integral_deterministic_problem_is_exact(rng):
    problem = random_problem(rng, dirac=True)
    one_hot = np.zeros((problem.horizon, problem.num_states, problem.num_actions))
    one_hot[..., 0] = 1.0
    problem = problem.replace(baseline_policy=type(problem.baseline_policy)(one_hot))
    d = linear_backward(problem, 1.0)
    est, se = path_integral_estimate(problem, 1.0, 0, 0, num_samples=1, seed=0)
    assert est == pytest.approx(d.z[0, 0], abs=1e-12)
    assert se == 0.0


def test_path_integral_zero_cost_is_exactly_one(rng):
    problem = random_problem(rng)
    problem = problem.replace(
        stage_costs=np.zeros_like(problem.stage_costs),
        terminal_cost=np.zeros_like(problem.terminal_cost),
    )
    est, se = path_integral_estimate(problem, 1.0, 0, 0, num_samples=100, seed=3)
    assert est == 1.0
    assert se == 0.0


def test_path_integral_m1_statistics(m1):
    est, se = path_integral_estimate(m1, 1.0, 0, 0, num_samples=10**5, seed=42)
    # per-sample variance is 0.25 (1 - e^-1)^2
    expected_se = 0.5 * (1 - np.exp(-1)) / np.sqrt(10**5)
    assert se == pytest.approx(expected_se, rel=0.02)
    assert abs(est - M1_Z0) <= 4 * expected_se


def test_path_integral_is_chunk_schedule_independent(rng):
    problem = random_problem(rng)
    base = path_integral_estimate(problem, 1.0, 0, 0, num_samples=3000, seed=9)
    for chunk in (1, 7, 128, 3000, 10**6):
        again = path_integral_estimate(
            problem, 1.0, 0, 0, num_samples=3000, seed=9, chunk_size=chunk
        )
        assert again == base


# Outputs of the sampler pinned as float.hex: (problem, t, x, seed,
# num_samples, chunk_size, estimate, stderr).  t = T takes no steps but still
# draws two uniforms per sample; 333 does not divide 1000; the last seed of
# each triple needs all 64 bits of the Philox key.
PINNED_PATH_INTEGRAL = [
    ("chain5", 0, 2, 0, 1000, 333, "0x1.9f304cc76f641p-3", "0x1.f751dd614a73dp-8"),
    ("chain5", 0, 2, 5, 40, 1, "0x1.38d635555e35bp-3", "0x1.1335f541be07dp-5"),
    ("chain5", 0, 2, 2**63 + 7, 1000, 65536, "0x1.adfeaff349cefp-3", "0x1.ff300704e004cp-8"),
    ("chain5", 4, 2, 0, 1000, 333, "0x1.152aaa3bf81cfp-3", "0x1.84c66df0ca4c3p-59"),
    ("chain5", 4, 2, 5, 40, 1, "0x1.152aaa3bf81ccp-3", "0x0.0p+0"),
    ("chain5", 4, 2, 2**63 + 7, 1000, 65536, "0x1.152aaa3bf81cfp-3", "0x1.84c66df0ca4c3p-59"),
    ("grid4x4", 0, 8, 0, 1000, 333, "0x1.35160a810d675p-5", "0x1.7e0078efe044bp-10"),
    ("grid4x4", 0, 8, 5, 40, 1, "0x1.036c5e51ff59fp-5", "0x1.4974dbd8b67dfp-8"),
    ("grid4x4", 0, 8, 2**63 + 7, 1000, 65536, "0x1.2123ecd34d071p-5", "0x1.63c93efafc58cp-10"),
    ("grid4x4", 3, 8, 0, 1000, 333, "0x1.2c155b8213cf2p-6", "0x1.032ef3f5dc32cp-62"),
    ("grid4x4", 3, 8, 5, 40, 1, "0x1.2c155b8213cf4p-6", "0x0.0p+0"),
    ("grid4x4", 3, 8, 2**63 + 7, 1000, 65536, "0x1.2c155b8213cf2p-6", "0x1.032ef3f5dc32cp-62"),
    ("sparse", 0, 3, 0, 1000, 333, "0x1.3390bae80293dp-8", "0x1.4c793b449f87fp-13"),
    ("sparse", 0, 3, 5, 40, 1, "0x1.3c80b21377528p-8", "0x1.810cdfc3c6017p-11"),
    ("sparse", 0, 3, 2**63 + 7, 1000, 65536, "0x1.47b7b031e5283p-8", "0x1.7ff576a1b4801p-13"),
    ("sparse", 5, 3, 0, 1000, 333, "0x1.4eff2bac87c7fp-1", "0x0.0p+0"),
    ("sparse", 5, 3, 5, 40, 1, "0x1.4eff2bac87c7fp-1", "0x0.0p+0"),
    ("sparse", 5, 3, 2**63 + 7, 1000, 65536, "0x1.4eff2bac87c7fp-1", "0x0.0p+0"),
]


def _pinned_problem(name):
    if name == "sparse":
        return sparse_problem(np.random.default_rng(2024), 7, 3, 5, lambda_s=1.0)
    return load_bundled_problem(name)[0]


def test_path_integral_matches_pinned_outputs():
    problems = {}
    for name, t, x, seed, n, chunk, est, se in PINNED_PATH_INTEGRAL:
        if name not in problems:
            problems[name] = _pinned_problem(name)
        out = path_integral_estimate(problems[name], 1.0, t, x, n, seed, chunk_size=chunk)
        assert out == (float.fromhex(est), float.fromhex(se)), (name, t, seed, n, chunk)


def test_path_integral_coverage(rng):
    problem = make_m1()
    hits = 0
    n = 4000
    exact_se = 0.5 * (1 - np.exp(-1)) / np.sqrt(n)
    for seed in range(60):
        est, _ = path_integral_estimate(problem, 1.0, 0, 0, num_samples=n, seed=seed)
        if abs(est - M1_Z0) <= 3 * exact_se:
            hits += 1
    assert hits >= 57  # 3-sigma coverage is ~99.7%


def test_path_integral_argument_validation(m1):
    with pytest.raises(ValueError):
        path_integral_estimate(m1, 1.0, 5, 0, num_samples=10, seed=0)
    with pytest.raises(ValueError):
        path_integral_estimate(m1, 1.0, 0, 9, num_samples=10, seed=0)
    with pytest.raises(ValueError):
        path_integral_estimate(m1, 1.0, 0, 0, num_samples=0, seed=0)


def test_path_integral_rejects_nonpositive_chunk_size(m1):
    for chunk in (0, -5):
        with pytest.raises(ValueError, match="chunk_size"):
            path_integral_estimate(m1, 1.0, 0, 0, num_samples=10, seed=0, chunk_size=chunk)


@pytest.mark.parametrize("seed", [-1, 2**64, True, 1.5, "3", None])
def test_path_integral_refuses_a_seed_outside_the_philox_key(m1, seed):
    with pytest.raises(ValueError, match="seed must be an integer"):
        path_integral_estimate(m1, 1.0, 0, 0, num_samples=10, seed=seed)


def test_path_integral_takes_the_largest_seed_as_a_numpy_integer(m1):
    top = 2**64 - 1
    as_numpy = path_integral_estimate(m1, 1.0, 0, 0, num_samples=10, seed=np.uint64(top))
    assert as_numpy == path_integral_estimate(m1, 1.0, 0, 0, num_samples=10, seed=top)


def test_path_integral_memory_is_bounded_by_the_chunk(rng):
    # all draws at once would take 200000 * 40 * 2 * 8 bytes = 128 MB; the
    # per-sample values are 1.6 MB and one chunk's draws 2.6 MB
    problem = random_problem(rng, num_states=4, num_actions=3, horizon=40)
    tracemalloc.start()
    try:
        path_integral_estimate(problem, 1.0, 0, 0, num_samples=200_000, seed=1, chunk_size=4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_path_integral_memory_is_bounded_by_the_block_whatever_the_chunk(rng):
    # a chunk of 10**6 samples would draw 200000 * 40 * 2 * 8 bytes = 128 MB
    # at once; a block of SAMPLE_BLOCK = 8192 samples draws 5.2 MB
    problem = random_problem(rng, num_states=4, num_actions=3, horizon=40)
    tracemalloc.start()
    try:
        path_integral_estimate(problem, 1.0, 0, 0, num_samples=200_000, seed=1, chunk_size=10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize(
    "call",
    [
        lambda p: linear_backward(p, 1.0),
        lambda p: compose(p, ComponentSet([[1.0, 0.0]], [1.0]), 1.0),
        lambda p: path_integral_estimate(p, 1.0, 0, 0, num_samples=10, seed=0),
    ],
    ids=["linear_backward", "compose", "path_integral_estimate"],
)
def test_invalid_problem_is_refused(m1, call):
    costs = m1.stage_costs.copy()
    costs[0, 0, 1] = np.nan
    with pytest.raises(ProblemValidationError, match=r"stage_costs\(0, 0, 1\): non-finite entry"):
        call(m1.replace(stage_costs=costs))


def test_compose_single_component_is_the_identity(rng):
    problem = random_problem(rng)
    comps = ComponentSet(problem.terminal_cost[None, :], [1.0])
    comp = compose(problem, comps, 1.0)
    direct = linear_backward(problem, 1.0)
    np.testing.assert_allclose(comp.composite.log_z, direct.log_z, atol=1e-12)
    np.testing.assert_allclose(comp.weights, 1.0, atol=1e-14)
    np.testing.assert_allclose(
        comp.mixture_policy.table,
        policy_from_desirability(problem, direct).table,
        atol=1e-12,
    )


def test_compose_m1_indicator_components(m1):
    # components that each exponentially favor one terminal state, combined
    # so the composite terminal desirability is (1, 1): costless problem.
    big = 50.0
    comps = ComponentSet(
        np.array([[0.0, big], [big, 0.0]]), [1.0 - np.exp(-big)] * 2
    )
    comp = compose(m1, comps, 1.0)
    np.testing.assert_allclose(comp.composite.z[1], [1.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(comp.mixture_policy.table, m1.baseline_policy.table, atol=1e-10)


def test_mixture_policy_equals_composite_policy(rng):
    for _ in range(20):
        problem = random_problem(rng)
        comps = ComponentSet(
            rng.uniform(0.0, 2.0, size=(3, problem.num_states)),
            rng.uniform(0.2, 2.0, size=3),
        )
        comp = compose(problem, comps, 1.0)
        direct = policy_from_desirability(problem, comp.composite)
        np.testing.assert_allclose(comp.mixture_policy.table, direct.table, atol=1e-10)


def test_compose_weights_sum_to_one(rng):
    problem = random_problem(rng)
    comps = ComponentSet(
        rng.uniform(0.0, 2.0, size=(4, problem.num_states)),
        rng.uniform(0.2, 2.0, size=4),
    )
    comp = compose(problem, comps, 1.0)
    np.testing.assert_allclose(comp.weights.sum(axis=0), 1.0, atol=1e-12)


def test_compose_gamma_scaling_homogeneity(rng):
    # scaling every gamma by the same factor rescales z and leaves the
    # weights and policies unchanged.
    problem = random_problem(rng)
    tc = rng.uniform(0.0, 2.0, size=(3, problem.num_states))
    g = rng.uniform(0.2, 2.0, size=3)
    a = compose(problem, ComponentSet(tc, g), 1.0)
    b = compose(problem, ComponentSet(tc, 2.5 * g), 1.0)
    np.testing.assert_allclose(b.composite.log_z, a.composite.log_z + np.log(2.5), atol=1e-12)
    np.testing.assert_allclose(b.weights, a.weights, atol=1e-12)
    np.testing.assert_allclose(b.mixture_policy.table, a.mixture_policy.table, atol=1e-12)


def test_component_set_validation():
    with pytest.raises(ValueError):
        ComponentSet(np.zeros((2, 3)), [1.0])
    with pytest.raises(ValueError):
        ComponentSet(np.zeros((2, 3)), [1.0, -1.0])


def test_linear_backward_with_large_costs_matches_the_log_domain(rng):
    # costs near 1e3 with lam = 1: every z = exp(-lam V) underflows to 0, so
    # only a shifted or log-domain recursion keeps log z finite
    lam = 1.0
    problem = sparse_problem(rng, 15, 4, 6, lambda_s=lam)
    costs = rng.uniform(900.0, 1100.0, size=problem.stage_costs.shape)
    problem = problem.replace(
        stage_costs=costs, terminal_cost=rng.uniform(900.0, 1100.0, size=15)
    )
    assert np.exp(-lam * problem.terminal_cost).max() == 0.0
    log_z = linear_backward(problem, lam).log_z
    with np.errstate(divide="ignore"):
        log_iota = np.log(problem.baseline_kernels.table)
        log_rho = np.log(problem.baseline_policy.table)
    ref = -lam * problem.terminal_cost
    np.testing.assert_allclose(log_z[-1], ref, rtol=1e-12, atol=0)
    for t in reversed(range(problem.horizon)):
        inner = np.logaddexp.reduce(log_iota[t] + ref, axis=-1)
        ref = np.logaddexp.reduce(log_rho[t] - lam * costs[t] + inner, axis=-1)
        assert np.isfinite(log_z[t]).all()
        np.testing.assert_allclose(log_z[t], ref, rtol=1e-12, atol=0)


def test_path_integral_standard_error_needs_no_second_sample_array():
    # the per-sample values are 16 MB at N = 2e6; values.std(ddof=1) took a
    # second 16 MB temporary for values - mean
    problem = load_bundled_problem("chain5")[0]
    tracemalloc.start()
    try:
        path_integral_estimate(problem, 1.0, 0, 0, num_samples=2_000_000, seed=1, chunk_size=4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20


def _same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _count_kernel_passes(monkeypatch, problem):
    """The calls to log_expect_exp whose first argument is one kernel stage."""
    stage = (problem.num_states, problem.num_actions, problem.num_states)
    calls = []
    original = desirability.log_expect_exp

    def counting(mu, g):
        if np.shape(mu) == stage:
            calls.append(mu)
        return original(mu, g)

    monkeypatch.setattr(desirability, "log_expect_exp", counting)
    return calls


def test_each_kernel_stage_is_passed_over_once(monkeypatch, rng):
    T = 5
    problem = sparse_problem(rng, 6, 3, T, lambda_s=0.5)
    calls = _count_kernel_passes(monkeypatch, problem)
    policy_from_desirability(problem, linear_backward(problem, 0.5))
    assert len(calls) == T
    calls.clear()
    em_solve(problem, 0.5, tol=0.0, max_iters=1)  # one E-step
    assert len(calls) == T
    calls.clear()
    components = ComponentSet(rng.uniform(0.0, 2.0, size=(3, 6)), [0.5, 1.0, 2.0])
    compose(problem, components, 0.5)
    assert len(calls) == 3 * T


def _dirac_rows(rng, problem):
    """``problem`` with about a third of its policy rows put on one action."""
    rho = problem.baseline_policy.table.copy()
    T, S, A = rho.shape
    for t, x in zip(*np.nonzero(rng.random((T, S)) < 0.35)):
        rho[t, x] = np.eye(A)[rng.integers(A)]
    return problem.replace(baseline_policy=Policy(rho))


def _reuse_cases():
    """(name, problem, lam): 45 seeded problems over sparse, full and Dirac
    policy rows and lam in {0.5, 40, 700}; the large weights send rows
    through the log-domain redo."""
    for seed in range(45):
        rng = np.random.default_rng(1000 + seed)
        lam = (0.5, 40.0, 700.0)[seed % 3]
        kind = ("sparse", "full", "dirac")[seed // 3 % 3]
        if kind == "sparse":
            problem = sparse_problem(rng, int(rng.integers(2, 9)), int(rng.integers(1, 5)), 4, lam)
        else:
            problem = random_problem(rng, max_states=7, max_actions=5, max_horizon=5)
            if kind == "dirac":
                problem = _dirac_rows(rng, problem)
        yield f"{kind}-{seed}", problem, lam


def _horizon_zero(rng):
    p = random_problem(rng, horizon=1)
    return p.replace(
        horizon=0,
        baseline_kernels=TransitionKernel(p.baseline_kernels.table[:0]),
        baseline_policy=Policy(p.baseline_policy.table[:0]),
        stage_costs=p.stage_costs[:0],
    )


def _homogeneous(rng):
    p = sparse_problem(rng, 6, 3, 1, lambda_s=0.5)
    doc = problem_to_dict(p) | {"horizon": 7, "time_homogeneous": True}
    for key in ("transitions", "baseline_policy", "stage_costs"):
        doc[key] = doc[key][0]
    return parse_problem(doc)[0]


def test_the_recorded_action_weights_give_the_recomputed_policy_bit_for_bit():
    rng = np.random.default_rng(7)
    cases = list(_reuse_cases())
    cases += [("horizon-zero", _horizon_zero(rng), 1.0)]
    cases += [("homogeneous", _homogeneous(rng), lam) for lam in (0.5, 700.0)]
    assert cases[-1][1].baseline_policy.table.strides[0] == 0
    for name, problem, lam in cases:
        d = linear_backward(problem, lam)
        reused = policy_from_desirability(problem, d).table
        fresh = dataclasses.replace(d)
        assert fresh._source is None, name
        assert _same_bits(policy_from_desirability(problem, fresh).table, reused), name
        # an equal problem that is another object rebuilds the weights too
        assert _same_bits(policy_from_desirability(problem.replace(), d).table, reused), name
        assert reused.flags.c_contiguous, name
        assert not d.log_z.flags.writeable, name


def test_a_table_passed_with_another_problem_is_checked_against_it(rng):
    b = random_problem(rng, horizon=3)
    a = b.replace(stage_costs=b.stage_costs + rng.uniform(0.3, 1.0, size=b.stage_costs.shape))
    d = linear_backward(b, 1.0)
    with pytest.raises(ValueError, match="inconsistent with the problem"):
        policy_from_desirability(a, d)


def test_an_inconsistent_table_reports_the_largest_gap_of_its_stages(rng):
    # raising log z_0 by 0.1 scales the sums of stage 0 by e^-0.1; raising
    # log z_T by 0.2 scales those of stage T-1 by e^0.2, the larger gap
    problem = random_problem(rng, horizon=3)
    log_z = linear_backward(problem, 1.0).log_z + np.array([0.1, 0.0, 0.0, 0.2])[:, None]
    gap = f"{np.expm1(0.2):.3g}"
    with pytest.raises(ValueError, match=rf"sums deviate by {gap}$"):
        policy_from_desirability(problem, Desirability(log_z, 1.0))
