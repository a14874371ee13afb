"""End-to-end analysis: Hopf location, certification, eigenbasis, verdict."""

from __future__ import annotations

from dataclasses import dataclass

from .averaging import StabilityReport, compute_q, p_from_structure, verdict
from .exceptions import SchemaError
from .fde import (
    HopfData,
    LinearFDE,
    PerturbationSpec,
    SpectralCertificate,
    certify_spectrum,
    eigenbasis,
    find_hopf_pair,
    normalize_frequency,
)
from .problem import Problem
from .simulate import SimProblem, classify, integrate


@dataclass(frozen=True)
class AnalysisResult:
    omega: float
    certificate: SpectralCertificate
    hopf: HopfData
    report: StabilityReport
    normalized_linear: LinearFDE
    normalized_pert: PerturbationSpec


def analyze(problem, omega_max=10.0, delta=0.05, rect=None):
    """Run the full stability pipeline on a parsed problem.

    rect, when given, is (re_hi, im_lo, im_hi) for the certification
    rectangle; the default is derived from the located frequency.
    """
    omega = find_hopf_pair(problem.linear, omega_max)
    if rect is None:
        im_bound = max(2.0 * omega, 5.0)
        rect = (1.0, -im_bound, im_bound)
    cert = certify_spectrum(problem.linear, delta, *rect, omega=omega)

    L1, pert1 = normalize_frequency(problem.linear, problem.pert, omega)
    hopf = eigenbasis(L1)

    q = compute_q(pert1.g_lin, hopf)
    extras = {}
    if pert1.factored:
        fs = p_from_structure(
            pert1.structure_matrix, pert1.distribution, hopf
        )
        p = fs.p
        extras = {
            "alpha": fs.alpha,
            "beta": fs.beta,
            "tr_C_hat": fs.tr_C_hat,
            "tr_C_hat_J": fs.tr_C_hat_J,
        }
    else:
        p = compute_q(pert1.f_general, hopf)
    report = verdict(
        q,
        p,
        pert1.kappa,
        extras=extras,
        gauge_id="svd-null-vector, largest component real positive",
    )
    return AnalysisResult(
        omega=omega,
        certificate=cert,
        hopf=hopf,
        report=report,
        normalized_linear=L1,
        normalized_pert=pert1,
    )


def build_sim_problem(problem, t_end=None, dt=None):
    if problem.sim is None and (t_end is None or dt is None):
        raise SchemaError(
            "$.simulation", "problem has no simulation block; pass t_end and dt"
        )
    cfg = problem.sim
    return SimProblem(
        linear=problem.linear,
        pert=problem.pert,
        nonlinearity=problem.nonlinearity,
        history=cfg.history if cfg else (0.1,) * problem.n,
        t_end=t_end if t_end is not None else cfg.t_end,
        dt=dt if dt is not None else cfg.dt,
    )


AGREEMENT_BAND = 0.1


def verify(problem, omega_max=10.0, t_end=None, dt=None):
    """Cross-check the averaged verdict against the simulation oracle.

    Returns (analysis, trajectory, agreement) with agreement one of
    "agree", "within_band", "disagree"; |q + kappa p| <= 0.1 tolerates
    finite-epsilon disagreement.
    """
    analysis = analyze(problem, omega_max=omega_max)
    traj = integrate(build_sim_problem(problem, t_end=t_end, dt=dt))
    label = classify(traj, omega=analysis.omega)

    pred = analysis.report.verdict
    in_band = abs(analysis.report.criterion) <= AGREEMENT_BAND
    if pred == "Stable":
        agree = label == "Decay"
    elif pred == "Unstable":
        agree = label in ("Growth", "Sustained")
    else:
        agree = False
    if agree:
        agreement = "agree"
    elif in_band:
        agreement = "within_band"
    else:
        agreement = "disagree"
    return analysis, traj, agreement
