import tracemalloc

import numpy as np
import pytest

from _helpers import (
    finite_difference_derivatives,
    random_distribution,
    random_symmetric_distribution,
    synthetic_hopf,
)
from hopfdelay.averaging import p_from_structure
from hopfdelay.exceptions import NotSymmetric, SupportViolation
from hopfdelay.measures import (
    ScalarDelayDistribution,
    dirac,
    moments,
    scale_family,
    triangular,
    uniform,
)
from hopfdelay.variance import (
    global_bound_check,
    local_derivatives,
    p_mu,
    scan_mu,
)

TAU = 15.0


@pytest.fixture
def C():
    return np.array([[0.4, -1.1], [0.9, 0.3]])


class TestPMu:
    def test_uniform_closed_form(self, C, vdp_hopf):
        h = uniform(TAU, 1.0)
        p0 = p_mu(C, h, TAU, 0.0, vdp_hopf)
        for mu in np.linspace(0.3, 12.0, 25):
            want = np.sin(mu) / mu * p0
            assert p_mu(C, h, TAU, mu, vdp_hopf) == pytest.approx(want, abs=1e-10)

    def test_mu_zero_is_discrete_delay(self, C, vdp_hopf):
        h = triangular(TAU, 1.0)
        assert p_mu(C, h, TAU, 0.0, vdp_hopf) == pytest.approx(
            p_from_structure(C, dirac(TAU), vdp_hopf).p, abs=1e-15
        )

    def test_point_reference_constant(self, C, vdp_hopf):
        for mu in (0.0, 0.5, 3.0):
            assert p_mu(C, dirac(TAU), TAU, mu, vdp_hopf) == pytest.approx(
                p_mu(C, dirac(TAU), TAU, 0.0, vdp_hopf), abs=1e-14
            )

    def test_reference_independence_at_mu_zero(self, C, vdp_hopf):
        # p0 only depends on the mean, not on the reference shape
        want = p_from_structure(C, dirac(TAU), vdp_hopf).p
        assert p_mu(C, uniform(TAU, 1.0), TAU, 0.0, vdp_hopf) == pytest.approx(
            want, abs=1e-12
        )
        assert p_mu(C, triangular(TAU, 0.7), TAU, 0.0, vdp_hopf) == pytest.approx(
            want, abs=1e-12
        )
        rng = np.random.default_rng(53)
        for _ in range(3):
            h = random_distribution(rng, tau_bar=TAU, halfwidth=1.0)
            _, mean, _ = moments(h)
            same_mean = p_from_structure(C, dirac(mean), vdp_hopf).p
            assert p_mu(C, h, mean, 0.0, vdp_hopf) == pytest.approx(
                same_mean, abs=1e-12
            )

    def test_mean_mismatch_rejected(self, C, vdp_hopf):
        with pytest.raises(ValueError):
            p_mu(C, uniform(TAU, 1.0), TAU + 0.1, 1.0, vdp_hopf)

    def test_negative_mu_rejected(self, C, vdp_hopf):
        with pytest.raises(ValueError):
            p_mu(C, uniform(TAU, 1.0), TAU, -0.5, vdp_hopf)


class TestScanMu:
    def test_uniform_sign_changes_at_k_pi(self, C, vdp_hopf):
        h = uniform(TAU, 1.0)
        grid = np.linspace(0.05, 4.0 * np.pi, 200)
        scan = scan_mu(C, h, TAU, grid.tolist(), vdp_hopf)
        roots = [r for _, _, r in scan.sign_changes]
        assert len(roots) >= 3
        for r in roots:
            k = round(r / np.pi)
            assert abs(r - k * np.pi) <= 1e-6
            assert abs(p_mu(C, h, TAU, r, vdp_hopf)) <= 1e-9

    def test_symmetric_triangular_bounded(self, C, vdp_hopf):
        h = triangular(TAU, 1.0)
        grid = np.linspace(0.1, 8.0, 60)
        scan = scan_mu(C, h, TAU, grid.tolist(), vdp_hopf)
        assert all(abs(p) <= abs(scan.p0) + 1e-12 for p in scan.p_values)

    def test_trivially_zero_feedback(self, vdp_hopf):
        # C_hat traceless both ways: p vanishes identically, no brackets
        H = synthetic_hopf(np.eye(2), np.eye(2))
        C0 = np.array([[1.0, 0.0], [0.0, -1.0]])
        scan = scan_mu(C0, uniform(TAU, 1.0), TAU, [0.5, 1.5, 2.5, 3.5], H)
        assert all(abs(p) <= 1e-14 for p in scan.p_values)
        assert scan.sign_changes == ()

    def test_grid_must_increase(self, C, vdp_hopf):
        with pytest.raises(ValueError):
            scan_mu(C, uniform(TAU, 1.0), TAU, [1.0, 1.0, 2.0], vdp_hopf)

    def test_matches_pushforward(self, C, vdp_hopf):
        # p_mu from the characteristic function of the reference agrees with
        # p on the measure h_mu built by pushforward, from mu = 1e-8 up to
        # the largest mu that keeps the support at lags >= 0. The pushforward
        # places its nodes at absolute lags c + mu*s with |c|, |mu*s| ~ mu*tau,
        # so its own phases carry a rounding of up to 2 eps mu tau (4e-10 at
        # tau = mu = 1000); with atoms, which do not average it out, that is
        # above the 1e-14 tau scale of the comparison.
        rng = np.random.default_rng(67)
        for tau_bar in (15.0, 1000.0):
            for h in (
                uniform(tau_bar, 1.0),
                triangular(tau_bar, 1.0),
                random_distribution(rng, tau_bar=tau_bar, halfwidth=0.8),
            ):
                _, mean, _ = moments(h)
                a_min = min([s for s, _ in h.atoms] + [pc.a for pc in h.pieces])
                limit = mean / (mean - a_min)
                grid = np.geomspace(1e-8, limit * (1.0 - 1e-9), 40)
                want = np.array(
                    [p_from_structure(C, scale_family(h, m), vdp_hopf).p for m in grid]
                )
                eps = np.finfo(float).eps
                tol = (1e-14 * tau_bar + 2 * eps * grid * mean) * np.max(np.abs(want))
                scan = scan_mu(C, h, mean, grid, vdp_hopf)
                assert np.all(np.abs(np.array(scan.p_values) - want) <= tol)
                for m, w, t in zip(grid[::13], want[::13], tol[::13]):
                    assert abs(p_mu(C, h, mean, m, vdp_hopf) - w) <= t

    def test_support_limit(self, C, vdp_hopf):
        # h_mu keeps lags >= 0 only for mu <= tau_bar / (tau_bar - a_min)
        h = uniform(TAU, 1.0)
        limit = TAU / (TAU - (TAU - 1.0))
        scan_mu(C, h, TAU, [1.0, limit * (1.0 - 1e-9)], vdp_hopf)
        with pytest.raises(SupportViolation):
            scan_mu(C, h, TAU, [1.0, 2.0, limit * 1.01], vdp_hopf)
        with pytest.raises(SupportViolation):
            p_mu(C, h, TAU, limit * 1.01, vdp_hopf)

    def test_empty_grid(self, C, vdp_hopf):
        scan = scan_mu(C, uniform(TAU, 1.0), TAU, [], vdp_hopf)
        assert scan.mu_grid == scan.p_values == scan.sign_changes == ()
        assert scan.p0 == p_from_structure(C, dirac(TAU), vdp_hopf).p

    def test_memory_is_blocked(self):
        # 500 mu points times ~32,000 nodes would be ~250 MB as one complex
        # matrix; row blocks keep the peak to a few node-length arrays. The
        # structure matrix is traceless both ways, so p vanishes identically
        # and no bisection runs: the peak is that of the grid product.
        H = synthetic_hopf(np.eye(2), np.eye(2))
        C0 = np.array([[1.0, 0.0], [0.0, -1.0]])
        h = uniform(1000.0, 1.0)
        grid = np.linspace(1.0, 999.0, 500)
        tracemalloc.start()
        try:
            scan = scan_mu(C0, h, 1000.0, grid, H)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(scan.p_values) == 500
        assert peak < 8e6


class TestLocalDerivatives:
    def test_uniform_closed_form(self, C, vdp_hopf):
        h = uniform(TAU, 1.0)
        p0 = p_mu(C, h, TAU, 0.0, vdp_hopf)
        d1, d2 = local_derivatives(C, h, TAU, vdp_hopf)
        assert d1 == 0.0
        assert d2 == pytest.approx(-p0 / 3.0, abs=1e-12)

    def test_zero_variance_rejected(self, C, vdp_hopf):
        with pytest.raises(ValueError):
            local_derivatives(C, dirac(TAU), TAU, vdp_hopf)

    def test_matches_finite_differences(self, C, vdp_hopf):
        h = triangular(TAU, 1.2)
        _, _, var = moments(h)
        p0 = p_mu(C, h, TAU, 0.0, vdp_hopf)
        d1, d2 = finite_difference_derivatives(C, h, TAU, vdp_hopf, 1e-3)
        assert abs(d1) <= 1e-6
        assert d2 == pytest.approx(-var * p0, rel=1e-4)

    def test_first_derivative_is_second_order_small(self, C, vdp_hopf):
        # central-difference d1 at mu=0 shrinks like step^2 (local extremum)
        h = uniform(TAU, 1.0)
        d1_coarse, _ = finite_difference_derivatives(C, h, TAU, vdp_hopf, 1e-2)
        d1_fine, _ = finite_difference_derivatives(C, h, TAU, vdp_hopf, 1e-3)
        assert abs(d1_coarse) <= 1e-4
        assert abs(d1_fine) <= max(1e-2 * abs(d1_coarse), 1e-10)


class TestGlobalBoundCheck:
    def test_uniform_attenuation(self, C, vdp_hopf):
        h = uniform(TAU, 1.0)
        rep = global_bound_check(C, h, TAU, np.linspace(0.2, 10.0, 50), vdp_hopf)
        assert rep.bound_holds
        assert rep.max_identity_error <= 1e-10
        for mu, _, att in rep.rows:
            assert att == pytest.approx(np.sin(mu) / mu, abs=1e-12)

    def test_mirrored_atoms_cosine_factor(self, C, vdp_hopf):
        d = 0.8
        h = ScalarDelayDistribution(
            atoms=((TAU - d, 0.5), (TAU + d, 0.5)),
            tau_max=TAU + d,
            probability=True,
        )
        rep = global_bound_check(C, h, TAU, [0.5, 1.7, 4.2], vdp_hopf)
        for mu, _, att in rep.rows:
            assert att == pytest.approx(np.cos(mu * d), abs=1e-12)

    def test_small_mu_factor_near_one(self, C, vdp_hopf):
        rep = global_bound_check(C, triangular(TAU, 1.0), TAU, [1e-4], vdp_hopf)
        assert rep.rows[0][2] == pytest.approx(1.0, abs=1e-7)

    def test_asymmetric_rejected(self, C, vdp_hopf):
        rng = np.random.default_rng(59)
        h = random_distribution(rng, tau_bar=TAU, halfwidth=1.0)
        _, mean, _ = moments(h)
        with pytest.raises(NotSymmetric):
            global_bound_check(C, h, mean, [1.0], vdp_hopf)

    def test_random_symmetric_references(self, C, vdp_hopf):
        rng = np.random.default_rng(61)
        for _ in range(5):
            h = random_symmetric_distribution(rng)
            _, mean, _ = moments(h)
            rep = global_bound_check(
                C, h, mean, np.linspace(0.25, 10.0, 40), vdp_hopf
            )
            assert rep.bound_holds
            assert rep.max_identity_error <= 1e-10
