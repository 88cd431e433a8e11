"""Conjugate gradient behavior on small dense systems."""

import numpy as np

from mpirecon.solvers import conjugate_gradient


def random_spd(rng, n):
    m = rng.normal(size=(n, n))
    return m @ m.T + n * np.eye(n)


class TestConjugateGradient:
    def test_matches_dense_solve(self):
        rng = np.random.default_rng(0)
        a = random_spd(rng, 24)
        b = rng.normal(size=24)
        result = conjugate_gradient(lambda x: a @ x, b, tolerance=1e-12, max_iterations=500)
        assert result.converged
        assert np.allclose(result.x, np.linalg.solve(a, b), rtol=1e-8)

    def test_residuals_non_increasing(self):
        rng = np.random.default_rng(1)
        a = random_spd(rng, 40)
        b = rng.normal(size=40)
        result = conjugate_gradient(lambda x: a @ x, b, tolerance=1e-14, max_iterations=200)
        res = np.asarray(result.residuals)
        assert np.all(np.diff(res) <= 1e-12 * res[:-1] + 1e-300)

    def test_zero_rhs_short_circuits(self):
        result = conjugate_gradient(lambda x: x, np.zeros(5), tolerance=1e-3, max_iterations=10)
        assert result.converged
        assert result.iterations == 0
        assert np.array_equal(result.x, np.zeros(5))

    def test_iteration_cap_reports_nonconverged(self):
        rng = np.random.default_rng(2)
        a = random_spd(rng, 30)
        b = rng.normal(size=30)
        result = conjugate_gradient(lambda x: a @ x, b, tolerance=1e-14, max_iterations=2)
        assert not result.converged
        assert result.iterations == 2
        assert result.final_residual > 1e-14

    def test_non_finite_residual_stops_unconverged(self):
        rng = np.random.default_rng(3)
        a = random_spd(rng, 10)
        calls = []

        def operator(x):
            calls.append(1)
            return a @ x if len(calls) < 3 else np.full_like(x, np.nan)

        result = conjugate_gradient(operator, rng.normal(size=10), 1e-14, 10_000)
        assert not result.converged
        assert result.iterations == len(calls) == 3
        assert np.isnan(result.final_residual)

    def test_non_finite_rhs_stops_before_the_first_iteration(self):
        b = np.ones(4)
        b[2] = np.nan
        result = conjugate_gradient(lambda x: x, b, tolerance=1e-3, max_iterations=10_000)
        assert not result.converged
        assert result.iterations == 0
