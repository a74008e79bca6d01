import numpy as np
import pytest

from klctrl import (
    SupportViolationError,
    dual_certificate,
    entropic_risk,
    tilted_distribution,
)
from klctrl.risk import (
    UNDERFLOW_SUM,
    entropic_risk_rows,
    log_expect_exp,
    risk_and_tilted_rows,
    tilted_rows,
)


def _log_domain_rows(mu, g):
    """Reference: log sum mu exp(g) and the tilted rows, by pairwise log-add."""
    with np.errstate(divide="ignore"):
        w = np.log(mu) + g
    lse = np.logaddexp.reduce(w, axis=-1)
    return lse, np.exp(w - lse[..., None])


def test_risk_of_a_constant_is_the_constant():
    assert entropic_risk([1.0], [3.0], 2.0) == pytest.approx(3.0, abs=1e-12)


def test_risk_seeking_worked_example():
    value = entropic_risk([0.5, 0.5], [0.0, np.log(4)], 1.0)
    assert value == pytest.approx(-np.log(0.625), abs=1e-12)
    assert value == pytest.approx(0.470004, abs=1e-6)


def test_risk_averse_worked_example():
    value = entropic_risk([0.5, 0.5], [0.0, np.log(4)], -1.0)
    assert value == pytest.approx(np.log(2.5), abs=1e-12)
    assert value == pytest.approx(0.916291, abs=1e-6)


def test_risk_ignores_zero_mass_entries():
    value = entropic_risk([0.5, 0.5, 0.0], [0.0, np.log(4), np.inf], 1.0)
    assert value == pytest.approx(-np.log(0.625), abs=1e-12)


def test_risk_never_overflows_for_large_weights():
    value = entropic_risk([0.5, 0.5], [0.0, 1000.0], 50.0)
    assert np.isfinite(value)
    assert value == pytest.approx(np.log(2.0) / 50.0, abs=1e-9)


def test_tilt_by_constant_returns_mu():
    mu = np.array([0.3, 0.7])
    np.testing.assert_allclose(tilted_distribution(mu, [2.0, 2.0], 1.0), mu, atol=1e-14)


def test_tilt_worked_example():
    out = tilted_distribution([0.5, 0.5], [0.0, np.log(4)], 1.0)
    np.testing.assert_allclose(out, [0.8, 0.2], atol=1e-12)


def test_tilt_concentrates_for_large_weight():
    out = tilted_distribution([0.5, 0.5], [0.0, 1.0], 50.0)
    assert out[0] >= 1 - 1e-20


def test_lambda_near_zero_is_rejected():
    with pytest.raises(ValueError):
        entropic_risk([0.5, 0.5], [0.0, 1.0], 1e-13)


def test_empty_support_is_an_error():
    with pytest.raises(ValueError):
        entropic_risk([0.0, 0.0], [0.0, 1.0], 1.0)


def test_dual_certificate_at_tilt_equals_risk():
    mu = np.array([0.5, 0.5])
    f = np.array([0.0, np.log(4)])
    for lam in (1.0, -1.0, 3.7):
        tilt = tilted_distribution(mu, f, lam)
        assert dual_certificate(mu, f, lam, tilt) == pytest.approx(
            entropic_risk(mu, f, lam), abs=1e-10
        )


def test_dual_certificate_sides_worked_examples():
    mu = np.array([0.5, 0.5])
    f = np.array([0.0, np.log(4)])
    at_mu = dual_certificate(mu, f, 1.0, mu)
    assert at_mu == pytest.approx(0.693147, abs=1e-6)
    assert at_mu >= entropic_risk(mu, f, 1.0)
    at_mu_averse = dual_certificate(mu, f, -1.0, mu)
    assert at_mu_averse == pytest.approx(0.693147, abs=1e-6)
    assert at_mu_averse <= entropic_risk(mu, f, -1.0)


def test_dual_certificate_support_violation():
    with pytest.raises(SupportViolationError):
        dual_certificate([1.0, 0.0], [0.0, 1.0], 1.0, [0.5, 0.5])


def _random_triples(rng, count, size=5):
    for _ in range(count):
        mu = rng.dirichlet(np.ones(size))
        f = rng.uniform(-3.0, 3.0, size=size)
        lam = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 3.0))
        yield mu, f, lam


def test_translation_invariance(rng):
    for mu, f, lam in _random_triples(rng, 200):
        m = float(rng.uniform(-5.0, 5.0))
        assert entropic_risk(mu, f + m, lam) == pytest.approx(
            entropic_risk(mu, f, lam) + m, abs=1e-10
        )


def test_monotonicity(rng):
    for mu, f, lam in _random_triples(rng, 200):
        g = f + rng.uniform(0.0, 2.0, size=f.shape)
        assert entropic_risk(mu, f, lam) <= entropic_risk(mu, g, lam) + 1e-12


def test_jensen_ordering(rng):
    for mu, f, _ in _random_triples(rng, 1000):
        mean = float(mu @ f)
        lam = float(rng.uniform(0.1, 3.0))
        assert entropic_risk(mu, f, -lam) >= mean - 1e-10
        assert mean >= entropic_risk(mu, f, lam) - 1e-10


def test_dual_attainment(rng):
    for mu, f, lam in _random_triples(rng, 30):
        risk = entropic_risk(mu, f, lam)
        tilt = tilted_distribution(mu, f, lam)
        assert dual_certificate(mu, f, lam, tilt) == pytest.approx(risk, abs=1e-9)
        for _ in range(100):
            cand = rng.dirichlet(np.ones(len(mu)))
            value = dual_certificate(mu, f, lam, cand)
            if lam > 0:
                assert value >= risk - 1e-10
            else:
                assert value <= risk + 1e-10


def test_small_lambda_approaches_the_expectation(rng):
    for mu, f, _ in _random_triples(rng, 100):
        spread = float(f.max() - f.min())
        for lam in (1e-6, -1e-6):
            assert abs(entropic_risk(mu, f, lam) - mu @ f) <= 1e-4 * spread**2


@pytest.mark.parametrize("lam", [700.0, 1000.0, -700.0, -1000.0])
def test_rows_whose_shifted_sum_underflows_match_the_log_domain(rng, lam):
    S, A = 12, 3
    # g = -lam f peaks at state 0 and sits at least |lam| lower elsewhere, so
    # a row without state 0 in its support sums to at most exp(-700).
    f = np.sign(lam) * rng.uniform(1.0, 1.5, size=S)
    f[0] = 0.0
    mu = rng.random((S, A, S)) * (rng.random((S, A, S)) < 0.4)
    mu[..., 1] += 0.1
    mu[: S // 2, :, 0] = 0.0
    mu[S // 2 :, :, 0] += 0.1
    mu /= mu.sum(axis=-1, keepdims=True)
    g = -lam * f
    shifted = mu @ np.exp(g - g.max())
    assert (shifted < UNDERFLOW_SUM).any() and (shifted >= UNDERFLOW_SUM).any()
    lse, tilt = _log_domain_rows(mu, g)
    np.testing.assert_allclose(entropic_risk_rows(mu, f, lam), -lse / lam, rtol=0, atol=1e-12)
    out = tilted_rows(mu, f, lam)
    np.testing.assert_allclose(out, tilt, rtol=0, atol=1e-12)
    assert np.all(out[mu == 0] == 0.0)

    # one value row per row (the action step): the maximizing entry carries
    # only 1e-300 of the mass, so the per-row shifted sum is tiny as well.
    rows = np.tile(f[1:A + 1], (S, 1))
    rows[:, 0] = 0.0
    weights = rng.dirichlet(np.ones(A), size=S)
    weights[: S // 2, 0] = 1e-300
    weights /= weights.sum(axis=-1, keepdims=True)
    lse, tilt = _log_domain_rows(weights, -lam * rows)
    np.testing.assert_allclose(
        entropic_risk_rows(weights, rows, lam), -lse / lam, rtol=0, atol=1e-12
    )
    np.testing.assert_allclose(tilted_rows(weights, rows, lam), tilt, rtol=0, atol=1e-12)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("lam", [0.5, -0.7, 700.0, -700.0])
def test_risk_and_tilted_rows_is_bitwise_the_two_row_operators(rng, lam):
    S, A = 12, 3
    # As above: at |lam| = 700 the rows without state 0 (shared vector) and
    # the rows whose maximizing action has mass 1e-300 (one value row per
    # row) underflow and take the log-domain redo.
    f = np.sign(lam) * rng.uniform(1.0, 1.5, size=S)
    f[0] = 0.0
    mu = rng.random((S, A, S)) * (rng.random((S, A, S)) < 0.4)
    mu[..., 1] += 0.1
    mu[: S // 2, :, 0] = 0.0
    mu[S // 2 :, :, 0] += 0.1
    mu /= mu.sum(axis=-1, keepdims=True)
    rows = np.tile(f[1:A + 1], (S, 1))
    rows[:, 0] = 0.0
    weights = rng.dirichlet(np.ones(A), size=S)
    weights[: S // 2, 0] = 1e-300
    weights[S // 2 :, 2] = 0.0
    weights /= weights.sum(axis=-1, keepdims=True)
    if abs(lam) >= 700:
        g = -lam * f
        assert (mu @ np.exp(g - g.max()) < UNDERFLOW_SUM).any()
        h = np.where(weights > 0, -lam * rows, -np.inf)
        h = np.exp(h - h.max(axis=-1, keepdims=True))
        assert ((weights * h).sum(axis=-1) < UNDERFLOW_SUM).any()
    for base, values in ((mu, f), (weights, rows), (mu[0, 0], f)):
        risk, tilt = risk_and_tilted_rows(base, values, lam)
        assert _same_bits(risk, entropic_risk_rows(base, values, lam))
        assert _same_bits(tilt, tilted_rows(base, values, lam))


@pytest.mark.parametrize("lam", [700.0, -700.0, 1000.0, -1000.0])
def test_row_operators_raise_no_floating_point_error_on_rows_that_take_the_redo(rng, lam):
    # The construction of the test above.  Some shared-vector rows sum to an
    # exact 0, which the core raises to UNDERFLOW_SUM before the log and the
    # tilt's division; underflow itself is expected and left alone.
    S, A = 12, 3
    f = np.sign(lam) * rng.uniform(1.0, 1.5, size=S)
    f[0] = 0.0
    mu = rng.random((S, A, S)) * (rng.random((S, A, S)) < 0.4)
    mu[..., 1] += 0.1
    mu[: S // 2, :, 0] = 0.0
    mu[S // 2 :, :, 0] += 0.1
    mu /= mu.sum(axis=-1, keepdims=True)
    rows = np.tile(f[1:A + 1], (S, 1))
    rows[:, 0] = 0.0
    weights = rng.dirichlet(np.ones(A), size=S)
    weights[: S // 2, 0] = 1e-300
    weights[S // 2 :, 2] = 0.0
    weights /= weights.sum(axis=-1, keepdims=True)
    g = -lam * f
    assert (mu @ np.exp(g - g.max()) == 0.0).any()
    operators = (
        lambda base, values: log_expect_exp(base, -lam * values),
        lambda base, values: entropic_risk_rows(base, values, lam),
        lambda base, values: tilted_rows(base, values, lam),
        lambda base, values: risk_and_tilted_rows(base, values, lam),
    )
    for base, values in ((mu, f), (weights, rows), (mu[0, 0], f)):
        for op in operators:
            expected = op(base, values)
            with np.errstate(divide="raise", invalid="raise", over="raise"):
                got = op(base, values)
            if isinstance(expected, tuple):
                assert all(_same_bits(a, b) for a, b in zip(got, expected))
            else:
                assert _same_bits(got, expected)
