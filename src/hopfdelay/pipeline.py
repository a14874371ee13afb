"""End-to-end analysis: Hopf location, certification, eigenbasis, verdict."""

from __future__ import annotations

from dataclasses import dataclass

from .averaging import StabilityReport, compute_q, p_from_structure, verdict
from .exceptions import CertificateFailed, SchemaError
from .fde import (
    HopfData,
    SpectralCertificate,
    certificate_box,
    certify_spectrum,
    eigenbasis,
    find_hopf_pair,
)
from .simulate import SimProblem, classify, integrate


@dataclass(frozen=True)
class AnalysisResult:
    omega: float
    certificate: SpectralCertificate
    hopf: HopfData
    report: StabilityReport


def analyze(problem):
    """Run the full stability pipeline on a parsed problem.

    The certificate's box is fde.certificate_box at the located frequency
    omega. The eigenbasis, q and p are read at omega on the loaded measures;
    nothing is rescaled.
    """
    omega = find_hopf_pair(problem.linear)
    cert = certify_spectrum(problem.linear, *certificate_box(omega), omega=omega)

    hopf = eigenbasis(problem.linear, omega)

    pert = problem.pert
    q = compute_q(pert.g_lin, hopf)
    extras = {}
    if pert.factored:
        fs = p_from_structure(pert.structure_matrix, pert.distribution, hopf)
        extras = vars(fs).copy()
        p = extras.pop("p")
    else:
        p = compute_q(pert.f_general, hopf)
    report = verdict(q, p, pert.kappa, extras=extras)
    return AnalysisResult(omega, cert, hopf, report)


def certified(analysis):
    """The analysis, if its spectral certificate found the Hopf pair."""
    if not analysis.certificate.hopf_pair_found:
        raise CertificateFailed(analysis.certificate)
    return analysis


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
# the simulation labels that agree with each verdict; Inconclusive has none
AGREEING_LABELS = {"Stable": ("Decay",), "Unstable": ("Growth", "Sustained")}


def verify(problem, t_end=None, dt=None):
    """Cross-check the averaged verdict against the simulation oracle.

    Returns (analysis, trajectory, agreement) with agreement one of
    "agree", "within_band", "disagree"; |q + kappa p| <= 0.1 tolerates
    finite-epsilon disagreement. A failed certificate raises
    CertificateFailed before the simulation runs.
    """
    analysis = certified(analyze(problem))
    traj = integrate(build_sim_problem(problem, t_end=t_end, dt=dt))
    label = classify(traj, omega=analysis.omega)

    if label in AGREEING_LABELS.get(analysis.report.verdict, ()):
        agreement = "agree"
    elif abs(analysis.report.criterion) <= AGREEMENT_BAND:
        agreement = "within_band"
    else:
        agreement = "disagree"
    return analysis, traj, agreement
