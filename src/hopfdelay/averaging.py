"""The averaged stability criterion q + kappa*p and related comparisons."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionMismatch, NotFactored
from .fde import I2, J, rot
from .measures import (
    DensityPiece,
    ScalarDelayDistribution,
    integrate_matrix,
    stieltjes_integral,
    trig_moments,
)

VERDICT_TOL = 1e-9

CRITERION_CAVEAT = (
    "asymptotic criterion: valid for sufficiently small epsilon; "
    "near q + kappa*p = 0 finite-epsilon effects decide"
)


@dataclass(frozen=True)
class StabilityReport:
    q: float
    p: float
    kappa: float
    criterion: float
    verdict: str  # Stable | Unstable | Inconclusive
    alpha: float | None = None
    beta: float | None = None
    tr_C_hat: float | None = None
    tr_C_hat_J: float | None = None
    gauge_id: str = ""
    feedback_effect: str = ""

    def to_dict(self):
        return {
            "q": self.q,
            "p": self.p,
            "kappa": self.kappa,
            "criterion": self.criterion,
            "verdict": self.verdict,
            "alpha": self.alpha,
            "beta": self.beta,
            "tr_C_hat": self.tr_C_hat,
            "tr_C_hat_J": self.tr_C_hat_J,
            "gauge_id": self.gauge_id,
            "feedback_effect": self.feedback_effect,
            "caveat": CRITERION_CAVEAT,
        }


@dataclass(frozen=True)
class FeedbackSummary:
    p: float
    alpha: float
    beta: float
    tr_C_hat: float
    tr_C_hat_J: float


def hat_functions(M, H):
    """Project a matrix measure onto the critical plane.

    Returns two scalar measures: dm1 = tr(Psi0^T dM Phi0) and
    dm2 = tr(Psi0^T dM Phi0 J).
    """
    n = H.Phi0.shape[0]
    if M.dim != n:
        raise DimensionMismatch(f"measure dimension {M.dim} != basis dimension {n}")

    def tr1(A):
        return float(np.trace(H.Psi0.T @ A @ H.Phi0))

    def tr2(A):
        return float(np.trace(H.Psi0.T @ A @ H.Phi0 @ J))

    def build(trace_of):
        atoms = tuple((s, trace_of(A)) for s, A in M.atoms)
        pieces = tuple(
            DensityPiece.from_local(
                pc.a, pc.b, np.multiply(pc.q, trace_of(pc.matrix))
            )
            for pc in M.pieces
        )
        return ScalarDelayDistribution(
            atoms=atoms, pieces=pieces, tau_max=M.tau_max
        )

    return build(tr1), build(tr2)


def _cos_sin_functional(m1, m2):
    # int cos(theta) dm1 + int sin(theta) dm2 with theta = -lag
    return float(
        stieltjes_integral(m1, np.cos) - stieltjes_integral(m2, np.sin)
    )


def compute_q(g_lin, H):
    """The drift contribution q of the averaged variational equation."""
    g1, g2 = hat_functions(g_lin, H)
    return _cos_sin_functional(g1, g2)


def compute_p(F, H):
    """The feedback contribution p, from a general matrix measure."""
    f1, f2 = hat_functions(F, H)
    return _cos_sin_functional(f1, f2)


def p_from_structure(C, h, H):
    """p for factored feedback F = C*h via the projected structure matrix.

    Returns p together with the trigonometric moments and the traces of
    C_hat = Psi0^T C Phi0, so reports can expose the comparison quantities.
    """
    C = np.asarray(C, dtype=float)
    C_hat = H.Psi0.T @ C @ H.Phi0
    tm = trig_moments(h)
    tr_C_hat = float(np.trace(C_hat))
    tr_C_hat_J = float(np.trace(C_hat @ J))
    p = tm.alpha * tr_C_hat + tm.beta * tr_C_hat_J
    return FeedbackSummary(
        p=float(p),
        alpha=tm.alpha,
        beta=tm.beta,
        tr_C_hat=tr_C_hat,
        tr_C_hat_J=tr_C_hat_J,
    )


def averaged_matrices(M, H):
    """Closed-form 2x2 period average of the projected measure.

    Both eigenvalues of the result have real part equal to half the
    corresponding scalar (p or q).
    """
    n = H.Phi0.shape[0]
    if M.dim != n:
        raise DimensionMismatch(f"measure dimension {M.dim} != basis dimension {n}")
    K = integrate_matrix(
        M,
        lambda s, A: H.Psi0.T @ A @ H.Phi0 @ rot(-s),
        np.zeros((2, 2)),
    )
    return 0.5 * np.trace(K) * I2 - 0.5 * np.trace(J @ K) * J


def verdict(q, p, kappa, extras=None, gauge_id=""):
    """Classify the origin by the sign of q + kappa*p."""
    criterion = q + kappa * p
    if criterion < -VERDICT_TOL:
        label = "Stable"
    elif criterion > VERDICT_TOL:
        label = "Unstable"
    else:
        label = "Inconclusive"
    kp = kappa * p
    if kp < -VERDICT_TOL:
        effect = "stabilizing"
    elif kp > VERDICT_TOL:
        effect = "destabilizing"
    else:
        effect = "neutral"
    extras = extras or {}
    return StabilityReport(
        q=float(q),
        p=float(p),
        kappa=float(kappa),
        criterion=float(criterion),
        verdict=label,
        gauge_id=gauge_id,
        feedback_effect=effect,
        **extras,
    )


def compare_delayed_undelayed(C, h, H, tol=1e-12):
    """Compare factored delayed feedback against its undelayed counterpart.

    Undelayed feedback has alpha = 1, beta = 0, so the comparison reduces to
    (1 - alpha) tr(C_hat) versus beta tr(C_hat J).
    """
    if C is None or h is None:
        raise NotFactored("comparison needs factored feedback C*h")
    fs = p_from_structure(C, h, H)
    lhs = (1.0 - fs.alpha) * fs.tr_C_hat
    rhs = fs.beta * fs.tr_C_hat_J
    if lhs - rhs > tol:
        return "MoreStabilizing"
    if rhs - lhs > tol:
        return "MoreDestabilizing"
    return "Equal"
