"""The averaged stability criterion q + kappa*p and related comparisons."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionMismatch, NonFiniteCriterion
from .fde import GAUGE_ID, J, rotated
from .measures import integrate_matrix, trig_moments

VERDICT_TOL = 1e-9
COMPARE_TOL = 1e-12  # compare_delayed_undelayed calls closer sides Equal

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
    gauge_id: str = GAUGE_ID
    feedback_effect: str = ""

    def to_dict(self):
        return {**vars(self), "caveat": CRITERION_CAVEAT}


@dataclass(frozen=True)
class FeedbackSummary:
    p: float
    alpha: float
    beta: float
    tr_C_hat: float
    tr_C_hat_J: float


def _projection(M, H):
    """K = Psi0^T int dM_1(s) Phi0 rot(-s), the measure on the critical plane,
    for M_1 the measure in time rescaled by omega = H.omega: K = Psi0^T
    (Re E Phi0 + Im E Phi0 J) / omega, E = int exp(-i omega s) dM(s)."""
    n = H.Phi0.shape[0]
    if M.dim != n:
        raise DimensionMismatch(f"measure dimension {M.dim} != basis dimension {n}")
    E = integrate_matrix(M, lambda s: np.exp(-1j * H.omega * s), H.omega)
    return H.Psi0.T @ rotated(E, H.Phi0) / H.omega


def compute_q(M, H):
    """tr K: q for the drift measure G, and p for a general feedback measure F."""
    return float(np.trace(_projection(M, H)))


def structure_traces(C, H):
    """tr(C_hat) and tr(C_hat J) of the projected C_hat = Psi0^T C Phi0."""
    C_hat = H.Psi0.T @ np.asarray(C, dtype=float) @ H.Phi0
    return float(np.trace(C_hat)), float(np.trace(C_hat @ J))


def p_from_structure(C, h, H):
    """p for factored feedback F = C*h via the projected structure matrix.

    Returns p with the trigonometric moments of h at H.omega and the traces
    of C_hat = Psi0^T (C/omega) Phi0, so reports can expose them.
    """
    tr_C_hat, tr_C_hat_J = structure_traces(np.divide(C, H.omega), H)
    tm = trig_moments(h, H.omega)
    p = tm.alpha * tr_C_hat + tm.beta * tr_C_hat_J
    return FeedbackSummary(float(p), tm.alpha, tm.beta, tr_C_hat, tr_C_hat_J)


def criterion(q, p, kappa):
    """q + kappa*p, refused when it is not finite: no sign decides then."""
    value = q + kappa * p
    if not math.isfinite(value):
        raise NonFiniteCriterion(
            f"q + kappa p = {value} at q = {q}, p = {p}, kappa = {kappa}"
        )
    return value


def verdict(q, p, kappa, extras=None):
    """Classify the origin by the sign of q + kappa*p."""
    value = criterion(q, p, kappa)
    if value < -VERDICT_TOL:
        label = "Stable"
    elif value > VERDICT_TOL:
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
    return StabilityReport(
        q=float(q),
        p=float(p),
        kappa=float(kappa),
        criterion=float(value),
        verdict=label,
        feedback_effect=effect,
        **(extras or {}),
    )


def compare_delayed_undelayed(fs):
    """Compare factored delayed feedback against its undelayed counterpart,
    from the FeedbackSummary fs that p_from_structure returns.

    Undelayed feedback has alpha = 1, beta = 0, so the comparison reduces to
    (1 - alpha) tr(C_hat) versus beta tr(C_hat J).
    """
    lhs = (1.0 - fs.alpha) * fs.tr_C_hat
    rhs = fs.beta * fs.tr_C_hat_J
    if lhs - rhs > COMPARE_TOL:
        return "MoreStabilizing"
    if rhs - lhs > COMPARE_TOL:
        return "MoreDestabilizing"
    return "Equal"
