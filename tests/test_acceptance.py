"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines live; under
plain pytest the lines appear in captured output.
"""

import math
import pathlib
import time

import numpy as np
import pytest

from _helpers import (
    VDP_G,
    feedback_matrix,
    finite_difference_derivatives,
    periodic_average_oracle,
    random_distribution,
    random_matrix_measure,
    random_symmetric_distribution,
    regauge,
    rotation_fde,
    scalar_lag_fde,
    vdp_problem,
)
from hopfdelay.averaging import (
    averaged_matrices,
    compute_q,
    p_from_structure,
)
from hopfdelay.fde import PerturbationSpec, certify_spectrum, find_hopf_pair
from hopfdelay.measures import dirac, moments, triangular, uniform, zero_measure
from hopfdelay.pipeline import build_sim_problem, verify
from hopfdelay.simulate import SimProblem, classify, integrate
from hopfdelay.variance import (
    global_bound_check,
    local_derivatives,
    p_mu,
    scan_mu,
)

PROBLEMS = pathlib.Path(__file__).resolve().parents[1] / "problems"


def _finish(number, name, errors):
    status = "FAIL" if errors else "PASS"
    print(f"ACCEPTANCE {number} ({name}): {status}")
    assert not errors, f"criterion {number}: " + "; ".join(errors)


def test_criterion_1_stabilization_benchmark():
    errors = []
    start = time.monotonic()

    for fname in ("vdp_stabilized.json", "vdp_stabilized_c78.json"):
        from hopfdelay.problem import load_problem

        problem = load_problem(str(PROBLEMS / fname))
        analysis, traj, agreement = verify(problem)
        label = traj.classification
        if analysis.report.verdict != "Stable" or label != "Decay":
            errors.append(f"{fname}: expected Stable+Decay, got "
                          f"{analysis.report.verdict}+{label}")
        if agreement != "agree":
            errors.append(f"{fname}: agreement {agreement}")
        quarter = traj.times <= 50.0
        early_peak = float(np.max(traj.amplitude[quarter]))
        late_peak = float(np.max(traj.amplitude[traj.times >= 150.0]))
        if early_peak < 5.0 * late_peak:
            errors.append(
                f"{fname}: amplitude fell only {early_peak / late_peak:.2f}x"
            )

    from hopfdelay.problem import load_problem

    open_loop = load_problem(str(PROBLEMS / "vdp_open_loop.json"))
    analysis, traj, agreement = verify(open_loop)
    if analysis.report.verdict != "Unstable" or traj.classification != "Sustained":
        errors.append(
            f"open loop: expected Unstable+Sustained, got "
            f"{analysis.report.verdict}+{traj.classification}"
        )
    limit = float(np.max(traj.amplitude[traj.times >= traj.times[-1] - 50.0]))
    if abs(limit - 2.0) > 0.1:
        errors.append(f"open loop: limit amplitude {limit:.3f} not 2 +/- 0.1")

    elapsed = time.monotonic() - start
    if elapsed > 10.0:
        errors.append(f"runtime {elapsed:.1f}s exceeds 10s")
    _finish(1, "stabilization benchmark", errors)


def test_criterion_2_position_feedback_threshold(vdp_hopf):
    errors = []
    q = compute_q(VDP_G, vdp_hopf)

    def criterion(c1):
        return q + p_from_structure(feedback_matrix(c1), dirac(1.0), vdp_hopf).p

    lo, hi = 1.0, 1.4
    if criterion(lo) <= 0 or criterion(hi) >= 0:
        errors.append("threshold not bracketed by [1.0, 1.4]")
    else:
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if criterion(mid) > 0:
                lo = mid
            else:
                hi = mid
        root = 0.5 * (lo + hi)
        want = 1.0 / math.sin(1.0)
        if abs(root - want) > 1e-6:
            errors.append(f"analysis threshold {root!r} != 1/sin(1) within 1e-6")

    label_below = classify(
        integrate(build_sim_problem(vdp_problem(1.0))), omega=1.0
    )
    label_above = classify(
        integrate(build_sim_problem(vdp_problem(1.4))), omega=1.0
    )
    if label_below not in ("Growth", "Sustained"):
        errors.append(f"c1=1.0 classified {label_below}, expected growth side")
    if label_above != "Decay":
        errors.append(f"c1=1.4 classified {label_above}, expected Decay")
    _finish(2, "position-feedback threshold", errors)


def test_criterion_3_uniform_closed_form(vdp_hopf):
    errors = []
    rng = np.random.default_rng(2026)
    cases = 0
    while cases < 10:
        tau_bar = rng.uniform(13.0, 20.0)
        C = rng.normal(size=(2, 2))
        p0 = p_from_structure(C, dirac(tau_bar), vdp_hopf).p
        if abs(p0) < 0.2:
            continue
        cases += 1
        h = uniform(tau_bar, 1.0)
        grid = np.linspace(4.0 * np.pi / 200.0, 4.0 * np.pi, 200)
        worst = 0.0
        for mu in grid:
            got = p_mu(C, h, tau_bar, float(mu), vdp_hopf)
            worst = max(worst, abs(got - np.sin(mu) / mu * p0))
        if worst > 1e-10:
            errors.append(f"case {cases}: closed-form error {worst:.2e}")
        scan = scan_mu(C, h, tau_bar, grid.tolist(), vdp_hopf)
        roots = [r for _, _, r in scan.sign_changes]
        if len(roots) < 3:
            errors.append(f"case {cases}: only {len(roots)} sign changes")
        for r in roots:
            k = round(r / np.pi)
            if k < 1 or abs(r - k * np.pi) > 1e-6:
                errors.append(f"case {cases}: root {r!r} not at k*pi")
    _finish(3, "uniform closed form sin(mu)/mu", errors)


def test_criterion_4_variance_local_extremum(vdp_hopf):
    errors = []
    rng = np.random.default_rng(404)
    cases = 0
    while cases < 10:
        tau_bar = rng.uniform(1.5, 3.0)
        kind = cases % 3
        if kind == 0:
            h = uniform(tau_bar, rng.uniform(0.3, 0.9))
        elif kind == 1:
            h = triangular(tau_bar, rng.uniform(0.3, 0.9))
        else:
            h = random_distribution(rng, tau_bar=tau_bar, halfwidth=0.6)
            _, tau_bar, _ = moments(h)
        C = rng.normal(size=(2, 2))
        p0 = p_mu(C, h, tau_bar, 0.0, vdp_hopf)
        _, _, var = moments(h)
        if abs(p0) < 0.05 or var <= 0:
            continue
        cases += 1
        d1_true, d2_true = local_derivatives(C, h, tau_bar, vdp_hopf)
        if d1_true != 0.0 or abs(d2_true + var * p0) > 1e-12:
            errors.append(f"case {cases}: analytic pair wrong")
        d1_fd, d2_fd = finite_difference_derivatives(C, h, tau_bar, vdp_hopf, 1e-3)
        if abs(d1_fd) > 1e-6:
            errors.append(f"case {cases}: |d1_fd|={abs(d1_fd):.2e} > 1e-6")
        rel = abs(d2_fd - d2_true) / abs(d2_true)
        if rel > 1e-4:
            errors.append(f"case {cases}: d2 relative error {rel:.2e}")
        # Richardson check across the two prescribed steps: the extrapolated
        # value must stay within the same tolerance (fine-step error is
        # already at the roundoff floor, so strict improvement is not asked)
        _, d2_coarse = finite_difference_derivatives(C, h, tau_bar, vdp_hopf, 1e-2)
        rich = (100.0 * d2_fd - d2_coarse) / 99.0
        if abs(rich - d2_true) / abs(d2_true) > 1e-4:
            errors.append(f"case {cases}: Richardson value off")
    _finish(4, "variance local extremum", errors)


def test_criterion_5_symmetric_attenuation_bound(vdp_hopf):
    errors = []
    rng = np.random.default_rng(505)
    for case in range(20):
        h = random_symmetric_distribution(rng)
        _, tau_bar, _ = moments(h)
        C = rng.normal(size=(2, 2))
        mus = np.linspace(10.0 / 100.0, 10.0, 100)
        rep = global_bound_check(C, h, tau_bar, mus, vdp_hopf)
        if rep.max_identity_error > 1e-10:
            errors.append(
                f"case {case}: identity error {rep.max_identity_error:.2e}"
            )
        for mu, pm, _ in rep.rows:
            if abs(pm) > abs(rep.p0) + 1e-12:
                errors.append(f"case {case}: |p_mu| > |p0| at mu={mu}")
                break
    _finish(5, "symmetric attenuation bound", errors)


def test_criterion_6_averaging_internals(vdp_hopf):
    errors = []
    rng = np.random.default_rng(606)

    for case in range(10):
        C = rng.normal(size=(2, 2))
        h = random_distribution(rng, tau_bar=rng.uniform(1.0, 2.5))
        kappa = rng.uniform(-2.0, 2.0)
        pert = PerturbationSpec(
            g_lin=VDP_G, kappa=kappa, epsilon=0.1,
            structure_matrix=C, distribution=h,
        )
        q = compute_q(VDP_G, vdp_hopf)
        p = p_from_structure(C, h, vdp_hopf).p
        total = averaged_matrices(VDP_G, vdp_hopf) + kappa * averaged_matrices(
            pert.feedback_measure(), vdp_hopf
        )
        eig = np.linalg.eigvals(total)
        if np.max(np.abs(eig.real - (q + kappa * p) / 2.0)) > 1e-10:
            errors.append(f"eigenvalue case {case}: real parts off")

    for case in range(10):
        M = random_matrix_measure(rng, n_atoms=int(rng.integers(0, 4)), n_pieces=1)
        diff = np.max(
            np.abs(
                averaged_matrices(M, vdp_hopf)
                - periodic_average_oracle(M, vdp_hopf)
            )
        )
        if diff > 1e-9:
            errors.append(f"oracle case {case}: diff {diff:.2e}")

    g = random_matrix_measure(rng, tau_max=1.5)
    C = rng.normal(size=(2, 2))
    h = uniform(1.2, 0.5)
    q_ref = compute_q(g, vdp_hopf)
    p_ref = p_from_structure(C, h, vdp_hopf).p
    for case in range(20):
        a, b = rng.normal(size=2)
        if a * a + b * b < 1e-4:
            a = 1.0
        H2 = regauge(vdp_hopf, a, b)
        if abs(compute_q(g, H2) - q_ref) > 1e-10:
            errors.append(f"gauge case {case}: q moved")
        if abs(p_from_structure(C, h, H2).p - p_ref) > 1e-10:
            errors.append(f"gauge case {case}: p moved")
    _finish(6, "averaging internals", errors)


def test_criterion_7_spectral_layer():
    errors = []
    L = scalar_lag_fde()
    omega = find_hopf_pair(L, 5.0)
    if abs(omega - math.pi / 2.0) > 1e-8:
        errors.append(f"omega {omega!r} != pi/2 within 1e-8")
    cert = certify_spectrum(L, 0.1, 1.0, -3.0, 3.0)
    if cert.root_count != 2 or not cert.hopf_pair_found:
        errors.append(
            f"certificate: count={cert.root_count}, "
            f"hopf={cert.hopf_pair_found}"
        )

    pert = PerturbationSpec(
        g_lin=zero_measure(2), kappa=0.0, epsilon=0.01,
        structure_matrix=np.zeros((2, 2)), distribution=dirac(0.0),
    )

    def rotation(t_end, dt):
        return SimProblem(
            linear=rotation_fde(), pert=pert, nonlinearity="none",
            history=(1.0, 0.0), t_end=t_end, dt=dt,
        )

    T = 2.0 * math.pi
    traj = integrate(rotation(T, T / 640.0))
    if np.max(np.abs(traj.amplitude - 1.0)) > 1e-6:
        errors.append("norm not preserved to 1e-6 over one period")
    if np.linalg.norm(traj.states[-1] - [1.0, 0.0]) > 1e-6:
        errors.append("did not return to (1, 0) within 1e-6")

    ref = integrate(rotation(6.4, 0.005)).states[-1]
    e_coarse = np.linalg.norm(integrate(rotation(6.4, 0.04)).states[-1] - ref)
    e_fine = np.linalg.norm(integrate(rotation(6.4, 0.02)).states[-1] - ref)
    ratio = e_coarse / e_fine
    if abs(ratio - 16.0) > 3.0:
        errors.append(f"convergence ratio {ratio:.2f} outside 16 +/- 3")
    _finish(7, "spectral layer and integrator order", errors)
