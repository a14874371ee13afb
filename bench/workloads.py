"""Seeded problem generators and the operation lists of the three workloads.

A workload is one round of CLI operations, each an `Op`: a problem
dictionary (written to a JSON file at set-up), the command line that runs
it, and the reference data of its check. The same seed gives the same
round. Reference data come from `oracle`, never from hopfdelay.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle

EPS_ANALYZE = 0.1


@dataclass
class Op:
    name: str
    kind: str  # e.g. "analyze.rotation", "scan.uniform", "verify.kernel"
    command: str  # analyze | scan | verify
    problem: dict
    args: list = field(default_factory=list)
    ref: dict = field(default_factory=dict)
    path: str = ""


# --- building blocks ---------------------------------------------------------


def _mat(a):
    return [[float(x) for x in row] for row in np.asarray(a, dtype=float)]


def _similarity(rng, n):
    """A random, well-conditioned change of basis."""
    while True:
        S = np.eye(n) + 0.5 * np.array(
            [[rng.uniform(-1.0, 1.0) for _ in range(n)] for _ in range(n)]
        )
        if np.linalg.cond(S) < 8.0:
            return S


def _random_matrix(rng, n, scale):
    return np.array(
        [[rng.uniform(-scale, scale) for _ in range(n)] for _ in range(n)]
    )


def _stable_block(rng, m):
    """An m x m real block whose eigenvalues have Re in [-2, -0.4]."""
    if m == 1:
        return np.array([[-rng.uniform(0.4, 2.0)]])
    if rng.random() < 0.5:
        return np.diag([-rng.uniform(0.4, 2.0) for _ in range(m)])
    d, e = rng.uniform(0.4, 2.0), rng.uniform(0.5, 6.0)
    return np.array([[-d, e], [-e, -d]])


def _embed(top, rest, n):
    """blockdiag(top, rest) padded to n x n."""
    B = np.zeros((n, n))
    k = top.shape[0]
    B[:k, :k] = top
    if rest is not None:
        B[k:, k:] = rest
    return B


def _feedback_distribution(rng):
    kind = rng.choice(("discrete", "uniform", "triangular"))
    if kind == "discrete":
        if rng.random() < 0.5:
            return {
                "type": "discrete",
                "atoms": [{"lag": rng.uniform(0.2, 3.0), "weight": 1.0}],
            }
        w = rng.uniform(0.2, 0.8)
        return {
            "type": "discrete",
            "atoms": [
                {"lag": rng.uniform(0.2, 1.5), "weight": w},
                {"lag": rng.uniform(1.5, 3.0), "weight": 1.0 - w},
            ],
        }
    mean = rng.uniform(0.5, 3.0)
    return {"type": kind, "mean": mean, "halfwidth": rng.uniform(0.1, 0.9) * mean}


def _problem(n, linear, g_atoms, C, dist, kappa, epsilon, sim=None, nonlin="none"):
    doc = {
        "schema_version": 1,
        "n": n,
        "linear_terms": linear,
        "g_linearization": {
            "atoms": [{"lag": s, "matrix": _mat(M)} for s, M in g_atoms]
        },
        "feedback": {
            "structure_matrix": _mat(C),
            "distribution": dist,
            "kappa": kappa,
        },
        "epsilon": epsilon,
        "nonlinearity": {"builtin": nonlin},
    }
    if sim is not None:
        doc["simulation"] = sim
    return doc


def _with_criterion(rng, linear_part):
    """Draw G, C, h, kappa until |q + kappa p| >= 0.05; return problem, ref."""
    n, linear, omega, u, v = linear_part
    while True:
        g_atoms = [(0.0, _random_matrix(rng, n, 1.0))]
        if rng.random() < 0.5:
            g_atoms.append((rng.uniform(0.1, 2.0), _random_matrix(rng, n, 0.5)))
        C = _random_matrix(rng, n, 2.0)
        dist = _feedback_distribution(rng)
        kappa = rng.uniform(-2.0, 2.0)
        prob = _problem(n, linear, g_atoms, C, dist, kappa, EPS_ANALYZE)
        q, p, _ = oracle.averaged_terms(prob, omega, u, v)
        if abs(q + kappa * p) >= 0.05:
            return prob, {"omega": omega, "q": q, "p": p, "u": u, "v": v}


# --- analyze-mix ---------------------------------------------------------------


def rotation_linear(rng, n):
    """Kind (a): x' = A x with A similar to blockdiag(omega J, stable block)."""
    omega = rng.uniform(0.5, 3.0)
    top = np.array([[0.0, -omega], [omega, 0.0]])
    B = _embed(top, _stable_block(rng, n - 2) if n > 2 else None, n)
    S = _similarity(rng, n)
    Si = np.linalg.inv(S)
    A = S @ B @ Si
    e_v = np.zeros(n, dtype=complex)
    e_v[:2] = (1.0, -1.0j)
    e_u = np.zeros(n, dtype=complex)
    e_u[:2] = (1.0, 1.0j)
    linear = {"atoms": [{"lag": 0.0, "matrix": _mat(A)}]}
    return n, linear, omega, Si.T @ e_u, S @ e_v


def _delayed_block(rng, n):
    """Similarity-transformed blockdiag(scalar delayed term, stable block)."""
    S = _similarity(rng, n) if n > 1 else np.eye(1)
    Si = np.linalg.inv(S)
    e1 = np.zeros(n)
    e1[0] = 1.0
    P = S @ np.outer(e1, e1) @ Si
    instant = None
    if n > 1:
        instant = S @ _embed(np.zeros((1, 1)), _stable_block(rng, n - 1), n) @ Si
    return S, Si, e1, P, instant


def lag_linear(rng, n):
    """Kind (b): x' = -a x(t - tau), a tau = pi/2, so omega = a."""
    a = rng.uniform(0.5, 3.0)
    tau = math.pi / (2.0 * a)
    S, Si, e1, P, instant = _delayed_block(rng, n)
    atoms = [{"lag": tau, "matrix": _mat(-a * P)}]
    if instant is not None:
        atoms.insert(0, {"lag": 0.0, "matrix": _mat(instant)})
    linear = {"atoms": atoms}
    return n, linear, a, (Si.T @ e1).astype(complex), (S @ e1).astype(complex)


# the cost of Delta(lambda) on a kernel grows with its width, so the width is
# fixed and the frequency varies
KERNEL_HALFWIDTH = 0.1


def kernel_linear(rng, n):
    """Kind (c): x' = -a int x(t - s) dh(s), h uniform on [tau - w, tau + w].

    tau = pi/(2 omega) and a = omega^2 w / sin(omega w) put the root at
    i*omega.
    """
    omega = rng.uniform(1.0, 2.0)
    tau = math.pi / (2.0 * omega)
    w = KERNEL_HALFWIDTH
    a = omega * omega * w / math.sin(omega * w)
    S, Si, e1, P, instant = _delayed_block(rng, n)
    linear = {
        "densities": [
            {
                "interval": [tau - w, tau + w],
                "matrix": _mat(-a * P),
                "density_coeffs": [1.0 / (2.0 * w)],
            }
        ]
    }
    if instant is not None:
        linear["atoms"] = [{"lag": 0.0, "matrix": _mat(instant)}]
    return n, linear, omega, (Si.T @ e1).astype(complex), (S @ e1).astype(complex)


ANALYZE_KINDS = {
    "rotation": (rotation_linear, (2, 3, 4)),
    "lag": (lag_linear, (1, 2, 3)),
    "kernel": (kernel_linear, (1, 2)),
}

def analyze_op(rng, kind, index):
    make, dims = ANALYZE_KINDS[kind]
    n = dims[index % len(dims)]
    prob, ref = _with_criterion(rng, make(rng, n))
    return Op(f"analyze-{kind}-{index}", f"analyze.{kind}", "analyze", prob, [], ref)


# --- scan-mu -------------------------------------------------------------------


def _custom_density(rng, tau):
    """An asymmetric triangle density with its peak at lag tau.

    It rises over a short interval and falls over a long one, split into
    4 linear pieces; coefficients are ascending in the lag.
    """
    rise, fall = rng.uniform(0.3, 0.8), rng.uniform(1.2, 2.5)
    a, peak, b = tau - rise, tau, tau + fall
    edges = [a, peak] + [peak + fall * k / 3.0 for k in (1, 2, 3)]
    height = 2.0 / (b - a)  # triangle of mass 1
    pieces = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi <= peak:
            slope = height / (peak - a)
            c0 = -slope * a
        else:
            slope = -height / (b - peak)
            c0 = height - slope * peak
        pieces.append({"interval": [lo, hi], "coeffs": [c0, slope]})
    return {"type": "custom", "atoms": [], "densities": pieces}


def _scan_distribution(rng, kind, omega):
    if kind in ("uniform", "triangular"):
        # omega * tau in [14.2, 15.4] and mu_max >= 0.9 of the support limit
        # tau/w put exactly four zeros of sin(x)/x, x = mu omega w, on the grid
        tau = rng.uniform(14.2, 15.4) / omega
        w = rng.uniform(0.6, 1.4)
        dist = {"type": kind, "mean": tau, "halfwidth": w}
        low = tau - w
    else:
        dist = _custom_density(rng, rng.uniform(6.0, 10.0))
        low = dist["densities"][0]["interval"][0]
    tau_bar = oracle.dist_mean(dist)
    return dist, tau_bar / (tau_bar - low)


# sign changes of p_mu on the grid of a custom scan; each one costs a
# bisection, so a fixed count keeps the work of a round from moving with
# the seed (symmetric kernels have four, uniform, or none, triangular)
CUSTOM_SIGN_CHANGES = 3


def scan_op(rng, kind, index, n_points):
    """scan --mu 0:B:N on a rotation system with factored feedback."""
    while True:
        n = 2 + index % 2
        _, linear, omega, u, v = rotation_linear(rng, n)
        dist, mu_limit = _scan_distribution(rng, kind, omega)
        g_atoms = [(0.0, _random_matrix(rng, n, 1.0))]
        C = _random_matrix(rng, n, 2.0)
        kappa = rng.uniform(0.5, 2.0)
        prob = _problem(n, linear, g_atoms, C, dist, kappa, EPS_ANALYZE)
        mu_max = rng.uniform(0.9, 0.97) * mu_limit
        mus = np.linspace(0.0, mu_max, n_points)[1:]
        q, p, denom = oracle.averaged_terms(prob, omega, u, v)
        ref = {"omega": omega, "q": q, "u": u, "v": v, "denom": denom}
        p_vals = scan_reference(prob, ref, mus)
        scale = max(abs(p_vals).max(), 1e-300)
        signs = np.sign(np.concatenate(([p], p_vals)))
        flips = int(np.count_nonzero(signs[1:] != signs[:-1]))
        # keep grid points clear of zeros of p_mu (simple or double), so the
        # sign pattern is not decided by roundoff
        if (
            abs(p_vals).min() > 1e-6 * scale
            and abs(p) > 0.05
            and (kind != "custom" or flips == CUSTOM_SIGN_CHANGES)
        ):
            ref["grid"] = f"0:{mu_max!r}:{n_points}"
            return Op(
                f"scan-{kind}-{index}",
                f"scan.{kind}",
                "scan",
                prob,
                ["--mu", ref["grid"]],
                ref,
            )


def scan_reference(prob, ref, mus):
    """p_mu per mu from the closed-form (or quadrature) transform of h_mu."""
    fb = prob["feedback"]
    phase, _ = oracle.p_mu_phase(fb["distribution"], ref["omega"], mus)
    C = np.asarray(fb["structure_matrix"], dtype=complex)
    k = oracle.projected(ref["u"], ref["v"], C) / ref["denom"]
    return 2.0 * (k * phase).real / ref["omega"]


# --- verify-sim ------------------------------------------------------------------

SHIPPED_VDP = {
    # file stem: (expected verdict, accepted simulation labels)
    "vdp_stabilized": ("Stable", ("Decay",)),
    "vdp_stabilized_c78": ("Stable", ("Decay",)),
    "vdp_open_loop": ("Unstable", ("Sustained",)),
    # below c1 = 1/sin 1 the origin is unstable; by t_end the trajectory
    # has reached the limit cycle, which the classifier calls Sustained
    "vdp_below_threshold": ("Unstable", ("Growth", "Sustained")),
}

SIM_DT = 0.05
SIM_T_END = 32.0  # 640 RK4 steps; ten periods need omega >= 1.97
KERNEL_NODES = 25  # trapezoid nodes of each generated feedback kernel


def sim_op(rng, kind, index):
    """Linearized rotation system with delayed feedback, nonlinearity none.

    kind "kernel" uses a uniform or triangular kernel of KERNEL_NODES grid
    nodes; kind "lag" a single grid-aligned discrete lag. The exact
    rightmost root decides the expected label.
    """
    while True:
        omega = rng.uniform(2.0, 2.6)
        A = np.array([[0.0, -omega], [omega, 0.0]])
        eps = 0.1
        steps_half = (KERNEL_NODES - 1) // 2
        w = steps_half * SIM_DT
        k_mean = rng.randint(round((w + 1.0) / SIM_DT), round(3.0 / SIM_DT))
        tau = k_mean * SIM_DT
        if kind == "kernel":
            dist = {
                "type": ("uniform", "triangular")[index % 2],
                "mean": tau,
                "halfwidth": w,
            }
        else:
            dist = {"type": "discrete", "atoms": [{"lag": tau, "weight": 1.0}]}
        C = _random_matrix(rng, 2, 1.5)
        G = _random_matrix(rng, 2, 0.5)
        kappa = rng.uniform(0.5, 1.5)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        sim = {
            "t_end": SIM_T_END,
            "dt": SIM_DT,
            "history": [0.1 * math.cos(theta), 0.1 * math.sin(theta)],
        }
        prob = _problem(
            2,
            {"atoms": [{"lag": 0.0, "matrix": _mat(A)}]},
            [(0.0, G)],
            C,
            dist,
            kappa,
            eps,
            sim=sim,
        )
        u = np.array([1.0, 1.0j])
        v = np.array([1.0, -1.0j])
        q, p, denom = oracle.averaged_terms(prob, omega, u, v)
        crit = q + kappa * p
        lam1 = 1j * omega + eps * omega * crit / 2.0
        try:
            root = oracle.newton_root(lambda z: oracle.char_det(prob, z), lam1)
        except ArithmeticError:
            continue
        sigma = root.real
        # a clear label (decay ratio below 0.3 or above 3.3 over half the
        # span), the averaged verdict on the same side, and no blow-up
        if (
            0.075 <= abs(sigma) <= 0.25
            and sigma * crit > 0
            and abs(root.imag - omega) < 0.2
        ):
            ref = {"omega": omega, "q": q, "p": p, "root": root}
            return Op(f"verify-{kind}-{index}", f"verify.{kind}", "verify", prob, [], ref)


# --- workloads -------------------------------------------------------------------

LIGHT_SCAN_POINTS = 60
# three light scans, not one: a single scan's cost moves with its seed by
# about 15 %, and it alone gives mu_points_per_s where scans are light
LIGHT_SCANS = 3


def vdp_reference(problem):
    """q and p of a shipped van der Pol problem (linear part -J, omega = 1)."""
    u, v = np.array([1.0, -1.0j]), np.array([1.0, 1.0j])
    q, p, _ = oracle.averaged_terms(problem, 1.0, u, v)
    return {"omega": 1.0, "q": q, "p": p}


def analyze_mix(rng, shipped):
    ops = [analyze_op(rng, "rotation", i) for i in range(12)]
    ops += [analyze_op(rng, "lag", i) for i in range(3)]
    ops += [analyze_op(rng, "kernel", i) for i in range(2)]
    ops += [scan_op(rng, "uniform", i, LIGHT_SCAN_POINTS) for i in range(LIGHT_SCANS)]
    ops.append(sim_op(rng, "lag", 0))
    return ops


def scan_mu(rng, shipped):
    ops = [scan_op(rng, "uniform", i, 200) for i in range(6)]
    ops += [scan_op(rng, "triangular", i, 200) for i in range(2)]
    ops += [scan_op(rng, "custom", i, 150) for i in range(2)]
    ops.append(sim_op(rng, "lag", 0))
    return ops


def verify_sim(rng, shipped):
    ops = []
    for stem, (verdict, labels) in SHIPPED_VDP.items():
        prob = json.loads((shipped / f"{stem}.json").read_text())
        ref = {"verdict": verdict, "labels": labels}
        ops.append(Op(stem, "verify.vdp", "verify", prob, [], ref))
    ops += [sim_op(rng, "kernel", i) for i in range(5)]
    ops += [scan_op(rng, "uniform", i, LIGHT_SCAN_POINTS) for i in range(LIGHT_SCANS)]
    return ops


WORKLOADS = {
    "analyze-mix": analyze_mix,
    "scan-mu": scan_mu,
    "verify-sim": verify_sim,
}


def generate(workload, seed, shipped, inputs_dir):
    """Build the round of `workload` for `seed` and write its input files."""
    rng = random.Random(f"{workload}:{seed}")
    ops = WORKLOADS[workload](rng, Path(shipped))
    inputs_dir = Path(inputs_dir)
    inputs_dir.mkdir(parents=True, exist_ok=True)
    for op in ops:
        op.path = str(inputs_dir / f"{op.name}.json")
        Path(op.path).write_text(json.dumps(op.problem, indent=1) + "\n")
    return ops
