import math

import numpy as np
import pytest
import scipy.special

from stickperc.errors import DomainError
from stickperc.special import log_beta, regularized_incomplete_beta


class TestIncompleteBeta:
    def test_endpoints(self):
        for a, b in [(1.0, 1.0), (0.4, 7.0), (5.0, 0.3)]:
            assert regularized_incomplete_beta(0.0, a, b) == 0.0
            assert regularized_incomplete_beta(1.0, a, b) == 1.0

    def test_uniform_cdf(self):
        assert regularized_incomplete_beta(0.5, 1.0, 1.0) == pytest.approx(0.5, abs=1e-14)

    def test_arcsine_identity(self):
        # J_z(1/2, 1/2) = (2/pi) arcsin(sqrt(z)); at z = 1/4 this is 1/3
        val = regularized_incomplete_beta(0.25, 0.5, 0.5)
        assert val == pytest.approx(1.0 / 3.0, abs=1e-12)
        # quadrature cross-check via the t = sin^2(theta) substitution,
        # which turns the integrand into a constant
        theta = np.linspace(0.0, math.asin(math.sqrt(0.25)), 20_001)
        quad = (2.0 / math.pi) * np.trapezoid(np.ones_like(theta), theta)
        assert val == pytest.approx(quad, abs=1e-9)

    def test_symmetry_identity(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            z = float(rng.uniform(0, 1))
            a = float(rng.uniform(0.05, 30))
            b = float(rng.uniform(0.05, 30))
            total = regularized_incomplete_beta(z, a, b) + regularized_incomplete_beta(
                1.0 - z, b, a
            )
            assert abs(total - 1.0) <= 1e-11

    def test_against_scipy(self):
        rng = np.random.default_rng(13)
        for _ in range(500):
            z = float(rng.uniform(0, 1))
            a = float(rng.uniform(0.05, 40))
            b = float(rng.uniform(0.05, 40))
            ours = regularized_incomplete_beta(z, a, b)
            ref = float(scipy.special.betainc(a, b, z))
            assert abs(ours - ref) <= 1e-12

    def test_log_beta_against_scipy(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            a = float(rng.uniform(0.05, 80))
            b = float(rng.uniform(0.05, 80))
            assert log_beta(a, b) == pytest.approx(float(scipy.special.betaln(a, b)), rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            regularized_incomplete_beta(-0.1, 1.0, 1.0)
        with pytest.raises(DomainError):
            regularized_incomplete_beta(1.1, 1.0, 1.0)
        with pytest.raises(DomainError):
            regularized_incomplete_beta(0.5, 0.0, 1.0)
