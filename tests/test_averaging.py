import numpy as np
import pytest

from _helpers import (
    VDP_G,
    averaged_matrices,
    feedback_matrix,
    feedback_measure,
    periodic_average_oracle,
    random_distribution,
    random_matrix_measure,
    synthetic_hopf,
    zero_measure,
)
from hopfdelay.averaging import (
    CRITERION_CAVEAT,
    compare_delayed_undelayed,
    compute_q,
    p_from_structure,
    verdict,
)
from hopfdelay.exceptions import DimensionMismatch
from hopfdelay.measures import dirac, uniform
from hopfdelay.problem import PerturbationSpec


class TestHatFunctions:
    """The hat of a measure, K = Psi0^T int dM(s) Phi0 rot(-s), read through
    compute_q (tr K) and averaged_matrices."""

    def test_vdp_drift_hand_example(self):
        H = synthetic_hopf(np.diag([1.0, -1.0]), np.diag([1.0, -1.0]))
        assert compute_q(VDP_G, H) == 1.0
        np.testing.assert_array_equal(averaged_matrices(VDP_G, H), 0.5 * np.eye(2))

    def test_zero_measure(self):
        H = synthetic_hopf(np.eye(2), np.eye(2))
        assert compute_q(zero_measure(2), H) == 0.0
        np.testing.assert_array_equal(
            averaged_matrices(zero_measure(2), H), np.zeros((2, 2))
        )

    def test_identity_atom_traces(self):
        from hopfdelay.measures import MatrixDelayMeasure

        H = synthetic_hopf(np.eye(2), np.eye(2))
        M = MatrixDelayMeasure(dim=2, atoms=((0.0, np.eye(2)),))
        assert compute_q(M, H) == 2.0
        np.testing.assert_array_equal(averaged_matrices(M, H), np.eye(2))

    def test_dimension_mismatch(self):
        H = synthetic_hopf(np.eye(2), np.eye(2))
        with pytest.raises(DimensionMismatch):
            compute_q(zero_measure(3), H)
        with pytest.raises(DimensionMismatch):
            averaged_matrices(zero_measure(3), H)


class TestPQ:
    def test_vdp_q_is_one(self, vdp_hopf):
        assert compute_q(VDP_G, vdp_hopf) == pytest.approx(1.0, abs=1e-12)

    def test_undelayed_p_is_trace(self, vdp_hopf):
        rng = np.random.default_rng(31)
        C = rng.normal(size=(2, 2))
        fs = p_from_structure(C, dirac(0.0), vdp_hopf)
        C_hat = vdp_hopf.Psi0.T @ C @ vdp_hopf.Phi0
        assert fs.p == pytest.approx(np.trace(C_hat), abs=1e-13)
        assert (fs.alpha, fs.beta) == pytest.approx((1.0, 0.0), abs=1e-15)

    def test_zero_feedback(self, vdp_hopf):
        fs = p_from_structure(np.zeros((2, 2)), dirac(1.0), vdp_hopf)
        assert fs.p == 0.0

    def test_vdp_position_feedback_sign(self, vdp_hopf):
        # lag-1 position feedback: p = -c1 sin(1), the stabilizing direction
        fs = p_from_structure(feedback_matrix(5.0), dirac(1.0), vdp_hopf)
        assert fs.p == pytest.approx(-5.0 * np.sin(1.0), abs=1e-12)

    def test_velocity_feedback_instantaneous(self, vdp_hopf):
        fs = p_from_structure(feedback_matrix(0.0, 3.0), dirac(0.0), vdp_hopf)
        assert fs.p == pytest.approx(3.0, abs=1e-12)

    def test_structure_matches_assembled_measure(self, vdp_hopf):
        # internal consistency: p from (C, h) equals the projection of F = C*h
        rng = np.random.default_rng(37)
        for _ in range(50):
            C = rng.normal(size=(2, 2))
            h = random_distribution(rng, tau_bar=rng.uniform(1.0, 3.0))
            pert = PerturbationSpec(
                g_lin=zero_measure(2),
                kappa=1.0,
                epsilon=0.1,
                structure_matrix=C,
                distribution=h,
            )
            p1 = p_from_structure(C, h, vdp_hopf).p
            p2 = compute_q(feedback_measure(pert), vdp_hopf)
            assert p1 == pytest.approx(p2, abs=1e-12)


class TestAveragedMatrices:
    def test_vdp_drift_eigenvalues(self, vdp_hopf):
        G_bar = averaged_matrices(VDP_G, vdp_hopf)
        eig = np.linalg.eigvals(G_bar)
        np.testing.assert_allclose(eig.real, [0.5, 0.5], atol=1e-10)

    def test_zero_measure(self, vdp_hopf):
        np.testing.assert_allclose(
            averaged_matrices(zero_measure(2), vdp_hopf), np.zeros((2, 2)),
            atol=1e-15,
        )

    def test_matches_periodic_oracle(self, vdp_hopf):
        rng = np.random.default_rng(41)
        for _ in range(10):
            M = random_matrix_measure(rng, n_atoms=rng.integers(0, 4), n_pieces=1)
            closed = averaged_matrices(M, vdp_hopf)
            oracle = periodic_average_oracle(M, vdp_hopf)
            np.testing.assert_allclose(closed, oracle, atol=1e-9)

    def test_eigenvalue_property(self, vdp_hopf):
        rng = np.random.default_rng(43)
        for _ in range(10):
            C = rng.normal(size=(2, 2))
            h = random_distribution(rng, tau_bar=2.0)
            kappa = rng.uniform(-2.0, 2.0)
            pert = PerturbationSpec(
                g_lin=VDP_G,
                kappa=kappa,
                epsilon=0.1,
                structure_matrix=C,
                distribution=h,
            )
            q = compute_q(VDP_G, vdp_hopf)
            p = p_from_structure(C, h, vdp_hopf).p
            total = averaged_matrices(VDP_G, vdp_hopf) + kappa * averaged_matrices(
                feedback_measure(pert), vdp_hopf
            )
            eig = np.linalg.eigvals(total)
            np.testing.assert_allclose(
                eig.real, [(q + kappa * p) / 2.0] * 2, atol=1e-10
            )


class TestVerdict:
    def test_stable(self):
        rep = verdict(1.0, -3.0, 1.0)
        assert rep.verdict == "Stable"
        assert rep.criterion == -2.0
        assert rep.feedback_effect == "stabilizing"

    def test_unstable_open_loop(self):
        rep = verdict(1.0, 0.0, 5.0)
        assert rep.verdict == "Unstable"
        assert rep.criterion == 1.0
        assert rep.feedback_effect == "neutral"

    def test_inconclusive_on_boundary(self):
        rep = verdict(1.0, -1.0, 1.0)
        assert rep.verdict == "Inconclusive"

    def test_vdp_above_threshold(self, vdp_hopf):
        fs = p_from_structure(feedback_matrix(5.0), dirac(1.0), vdp_hopf)
        rep = verdict(compute_q(VDP_G, vdp_hopf), fs.p, 1.0)
        assert rep.verdict == "Stable"

    def test_report_serialization(self):
        rep = verdict(
            1.0,
            -3.0,
            1.0,
            extras={"alpha": 0.5, "beta": -0.8, "tr_C_hat": 0.0, "tr_C_hat_J": 5.0},
        )
        doc = rep.to_dict()
        assert set(doc) == {
            "q", "p", "kappa", "criterion", "verdict", "alpha", "beta",
            "tr_C_hat", "tr_C_hat_J", "gauge_id", "feedback_effect", "caveat",
        }
        assert doc["caveat"] == CRITERION_CAVEAT


class TestCompareDelayedUndelayed:
    """The comparison reads the FeedbackSummary of p_from_structure."""

    def test_instantaneous_is_equal(self, vdp_hopf):
        rng = np.random.default_rng(47)
        C = rng.normal(size=(2, 2))
        fs = p_from_structure(C, dirac(0.0), vdp_hopf)
        assert compare_delayed_undelayed(fs) == "Equal"

    def test_vdp_lag_one_more_stabilizing(self, vdp_hopf):
        fs = p_from_structure(feedback_matrix(5.0), dirac(1.0), vdp_hopf)
        assert compare_delayed_undelayed(fs) == "MoreStabilizing"

    def test_traceless_never_equal(self, vdp_hopf):
        # tr(C_hat) = 0: instantaneous feedback would be neutral, so any
        # delayed variant is strictly better or worse
        res_pos = compare_delayed_undelayed(
            p_from_structure(feedback_matrix(5.0), uniform(1.0, 0.3), vdp_hopf)
        )
        res_neg = compare_delayed_undelayed(
            p_from_structure(feedback_matrix(-5.0), uniform(1.0, 0.3), vdp_hopf)
        )
        assert {res_pos, res_neg} == {"MoreStabilizing", "MoreDestabilizing"}
