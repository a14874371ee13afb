import numpy as np
import pytest

from _helpers import (
    feedback_matrix,
    random_matrix_measure,
    regauge,
    rotation_fde,
    scalar_lag_fde,
    vdp_problem,
)
from hopfdelay import fde, pipeline
from hopfdelay.averaging import compute_q, p_from_structure
from hopfdelay.exceptions import (
    DegenerateEigenspace,
    DimensionMismatch,
    HopfNotFound,
    MultiplePairs,
)
from hopfdelay.fde import (
    I2,
    J,
    LinearFDE,
    PerturbationSpec,
    bilinear_pairing,
    certify_spectrum,
    char_matrix,
    char_matrix_derivative,
    eigenbasis,
    find_hopf_pair,
    normalize_frequency,
    rot,
)
from hopfdelay.measures import MatrixDelayMeasure, dirac, uniform, zero_measure


def _no_delay_fde(A):
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    eta = MatrixDelayMeasure(dim=n, atoms=((0.0, A),), tau_max=0.0)
    return LinearFDE(dim=n, eta=eta, tau_max=1.0)


class TestRot:
    def test_group_property(self):
        np.testing.assert_allclose(
            rot(0.7) @ rot(-1.9), rot(-1.2), atol=1e-14
        )

    def test_quarter_turn_is_J(self):
        np.testing.assert_allclose(rot(np.pi / 2), J, atol=1e-15)


class TestCharMatrix:
    def test_scalar_lag_root(self):
        L = scalar_lag_fde()
        val = char_matrix(L, 1j * np.pi / 2)
        assert abs(val[0, 0]) <= 1e-12

    def test_no_delay(self):
        A = np.array([[1.0, 2.0], [3.0, 4.0]])
        L = _no_delay_fde(A)
        lam = 0.3 - 1.7j
        np.testing.assert_allclose(
            char_matrix(L, lam), lam * np.eye(2) - A, atol=1e-14
        )

    def test_vdp_root_at_i(self):
        L = rotation_fde()
        assert abs(np.linalg.det(char_matrix(L, 1j))) <= 1e-12

    def test_derivative_no_delay(self):
        L = _no_delay_fde(np.diag([1.0, 2.0]))
        np.testing.assert_allclose(
            char_matrix_derivative(L, 1j), np.eye(2), atol=1e-14
        )

    def test_derivative_finite_difference(self):
        L = scalar_lag_fde()
        lam = 0.1 + 1.2j
        h = 1e-6
        fd = (char_matrix(L, lam + h) - char_matrix(L, lam - h)) / (2 * h)
        np.testing.assert_allclose(
            char_matrix_derivative(L, lam), fd, atol=1e-8
        )


class TestFindHopfPair:
    def test_rotation(self):
        assert find_hopf_pair(rotation_fde(), 5.0) == pytest.approx(1.0, abs=1e-10)

    def test_scalar_lag(self):
        assert find_hopf_pair(scalar_lag_fde(), 5.0) == pytest.approx(
            np.pi / 2, abs=1e-8
        )

    def test_stable_scalar(self):
        with pytest.raises(HopfNotFound):
            find_hopf_pair(_no_delay_fde([[-1.0]]), 5.0)

    def test_multiple_pairs(self):
        A = np.zeros((4, 4))
        A[:2, :2] = -J
        A[2:, 2:] = -2.0 * J
        with pytest.raises(MultiplePairs):
            find_hopf_pair(_no_delay_fde(A), 5.0)


class TestCertifySpectrum:
    def test_rotation_pair(self):
        cert = certify_spectrum(rotation_fde(), 0.5, 1.0, -2.0, 2.0)
        assert cert.root_count == 2
        assert cert.hopf_pair_found

    def test_stable_scalar_empty(self):
        cert = certify_spectrum(_no_delay_fde([[-1.0]]), 0.5, 1.0, -2.0, 2.0)
        assert cert.root_count == 0
        assert not cert.hopf_pair_found

    def test_real_unstable_root(self):
        cert = certify_spectrum(_no_delay_fde([[1.0]]), 0.5, 2.0, -2.0, 2.0)
        assert cert.root_count == 1
        assert not cert.hopf_pair_found

    def test_scalar_lag_standing_assumption(self):
        cert = certify_spectrum(scalar_lag_fde(), 0.05, 1.0, -3.0, 3.0)
        assert cert.root_count == 2
        assert cert.hopf_pair_found

    def test_shipped_examples_delta(self):
        for L in (rotation_fde(), scalar_lag_fde()):
            cert = certify_spectrum(L, 0.05, 1.0, -5.0, 5.0)
            assert cert.root_count == 2
            assert cert.hopf_pair_found

    def test_given_omega_matches_search(self):
        L = scalar_lag_fde()
        omega = find_hopf_pair(L, 3.0)
        assert certify_spectrum(L, 0.05, 1.0, -3.0, 3.0, omega=omega) == (
            certify_spectrum(L, 0.05, 1.0, -3.0, 3.0)
        )
        # a frequency with no root on it is not certified
        cert = certify_spectrum(L, 0.05, 1.0, -3.0, 3.0, omega=omega + 0.01)
        assert cert.root_count == 2
        assert not cert.hopf_pair_found

    def test_analyze_searches_once(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return find_hopf_pair(*args, **kwargs)

        monkeypatch.setattr(fde, "find_hopf_pair", counted)
        monkeypatch.setattr(pipeline, "find_hopf_pair", counted)
        result = pipeline.analyze(vdp_problem(5.0))
        assert len(calls) == 1
        assert result.certificate.hopf_pair_found


class TestNormalizeFrequency:
    def test_identity(self):
        L = rotation_fde()
        L2, _, rec = normalize_frequency(L, None, 1.0)
        assert rec.omega == 1.0
        assert L2.eta.atoms[0][0] == 0.0
        np.testing.assert_allclose(L2.eta.atoms[0][1], -J, atol=1e-15)

    def test_scalar_lag(self):
        L = scalar_lag_fde()
        L2, _, _ = normalize_frequency(L, None, np.pi / 2)
        (lag, mat), = L2.eta.atoms
        assert lag == pytest.approx(np.pi / 2, abs=1e-14)
        assert mat[0, 0] == pytest.approx(-1.0, abs=1e-14)
        assert find_hopf_pair(L2, 3.0) == pytest.approx(1.0, abs=1e-10)

    def test_lag_set_scaling(self):
        eta = MatrixDelayMeasure(
            dim=1, atoms=((1.0, [[-0.2]]), (2.0, [[-0.3]])), tau_max=2.0
        )
        L = LinearFDE(dim=1, eta=eta, tau_max=2.0)
        L2, _, _ = normalize_frequency(L, None, 3.0)
        assert [s for s, _ in L2.eta.atoms] == pytest.approx([3.0, 6.0])

    def test_perturbation_rescaling(self):
        problem = vdp_problem(5.0, distribution=uniform(1.0, 0.5))
        _, pert2, _ = normalize_frequency(problem.linear, problem.pert, 2.0)
        np.testing.assert_allclose(
            pert2.structure_matrix, feedback_matrix(5.0) / 2.0, atol=1e-14
        )
        from hopfdelay.measures import moments

        mass, mean, _ = moments(pert2.distribution)
        assert mass == pytest.approx(1.0, abs=1e-12)
        assert mean == pytest.approx(2.0, abs=1e-12)


class TestEigenbasis:
    def test_rotation_invariants(self, vdp_hopf):
        H = vdp_hopf
        assert H.omega == 1.0
        assert H.normalization_residual <= 1e-8
        assert H.ode_residual <= 1e-8
        L = rotation_fde()
        assert np.linalg.norm(char_matrix(L, 1j) @ H.v) <= 1e-10
        pairing = bilinear_pairing(L, H.Psi0, H.Phi0)
        np.testing.assert_allclose(pairing, I2, atol=1e-8)

    def test_scalar_lag_invariants(self, scalar_hopf):
        H = scalar_hopf
        assert H.Phi0.shape == (1, 2)
        assert H.normalization_residual <= 1e-8
        assert H.ode_residual <= 1e-8

    def test_closed_form_pairing_matches_quadrature(self, scalar_hopf):
        # the closed-form normalization u^T Delta'(i) v = 1 must reproduce
        # (Psi, Phi) = I under direct quadrature of the bilinear form
        L = scalar_lag_fde()
        L1, _, _ = normalize_frequency(L, None, find_hopf_pair(L, 3.0))
        pairing = bilinear_pairing(L1, scalar_hopf.Psi0, scalar_hopf.Phi0)
        np.testing.assert_allclose(pairing, I2, atol=1e-8)

    def test_degenerate_eigenspace(self):
        A = np.zeros((4, 4))
        A[:2, :2] = -J
        A[2:, 2:] = -J
        with pytest.raises(DegenerateEigenspace):
            eigenbasis(_no_delay_fde(A))

    def test_gauge_invariance_of_p_and_q(self, vdp_hopf):
        rng = np.random.default_rng(23)
        g = random_matrix_measure(rng, tau_max=1.5)
        C = rng.normal(size=(2, 2))
        h = uniform(1.0, 0.4)
        q_ref = compute_q(g, vdp_hopf)
        p_ref = p_from_structure(C, h, vdp_hopf).p
        for _ in range(20):
            a, b = rng.normal(size=2)
            if a * a + b * b < 1e-4:
                a = 1.0
            H2 = regauge(vdp_hopf, a, b)
            assert compute_q(g, H2) == pytest.approx(q_ref, abs=1e-10)
            assert p_from_structure(C, h, H2).p == pytest.approx(p_ref, abs=1e-10)


class TestPerturbationSpec:
    def test_requires_some_feedback(self):
        with pytest.raises(ValueError):
            PerturbationSpec(g_lin=zero_measure(2), kappa=1.0, epsilon=0.1)

    def test_factored_needs_distribution(self):
        with pytest.raises(ValueError):
            PerturbationSpec(
                g_lin=zero_measure(2),
                kappa=1.0,
                epsilon=0.1,
                structure_matrix=np.eye(2),
            )

    def test_feedback_measure_assembly(self):
        C = feedback_matrix(5.0)
        pert = PerturbationSpec(
            g_lin=zero_measure(2),
            kappa=1.0,
            epsilon=0.1,
            structure_matrix=C,
            distribution=dirac(1.0),
        )
        assert pert.factored
        F = pert.feedback_measure()
        assert len(F.atoms) == 1
        lag, mat = F.atoms[0]
        assert lag == 1.0
        np.testing.assert_allclose(mat, C, atol=1e-15)

    def test_general_measure_flagged(self):
        F = MatrixDelayMeasure(dim=2, atoms=((1.0, np.eye(2)),), tau_max=1.0)
        pert = PerturbationSpec(
            g_lin=zero_measure(2), kappa=1.0, epsilon=0.1, f_general=F
        )
        assert not pert.factored
        assert pert.feedback_measure() is F


class TestLinearFDE:
    def test_dimension_check(self):
        eta = MatrixDelayMeasure(dim=1, atoms=((0.0, [[-1.0]]),), tau_max=0.0)
        with pytest.raises(DimensionMismatch):
            LinearFDE(dim=2, eta=eta, tau_max=1.0)

    def test_support_check(self):
        eta = MatrixDelayMeasure(dim=1, atoms=((2.0, [[-1.0]]),), tau_max=2.0)
        with pytest.raises(DimensionMismatch):
            LinearFDE(dim=1, eta=eta, tau_max=1.0)
