"""Stability of delayed-feedback systems near a Hopf bifurcation."""

from .averaging import (
    StabilityReport,
    averaged_matrices,
    compare_delayed_undelayed,
    compute_q,
    p_from_structure,
    verdict,
)
from .fde import (
    HopfData,
    PerturbationSpec,
    SpectralCertificate,
    certify_spectrum,
    char_matrix,
    eigenbasis,
    find_hopf_pair,
    normalize_frequency,
)
from .measures import (
    MatrixDelayMeasure,
    ScalarDelayDistribution,
    TrigMoments,
    dirac,
    is_symmetric,
    moments,
    scale_family,
    stieltjes_integral,
    triangular,
    trig_moments,
    truncated_gamma,
    uniform,
)
from .pipeline import analyze, build_sim_problem, verify
from .problem import load_problem
from .simulate import SimProblem, Trajectory, classify, integrate
from .variance import (
    MuScan,
    global_bound_check,
    local_derivatives,
    p_mu,
    scan_mu,
)

__version__ = "0.1.0"
