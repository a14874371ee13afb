"""Builders shared by the test modules."""

import numpy as np

from hopfdelay.averaging import p_from_structure
from hopfdelay.fde import J, LinearFDE, PerturbationSpec, rot
from hopfdelay.measures import (
    DensityPiece,
    MatrixDelayMeasure,
    MatrixPiece,
    ScalarDelayDistribution,
    dirac,
    integrate_matrix,
    moments,
    scale_about_mean,
)
from hopfdelay.problem import Problem, SimConfig

VDP_G = MatrixDelayMeasure(
    dim=2, atoms=((0.0, [[0.0, 0.0], [0.0, 1.0]]),), tau_max=0.0
)


def rotation_fde(tau_max=1.0):
    """x' = -J x: the harmonic oscillator in first-order form."""
    eta = MatrixDelayMeasure(dim=2, atoms=((0.0, -J),), tau_max=0.0)
    return LinearFDE(dim=2, eta=eta, tau_max=tau_max)


def scalar_lag_fde(coefficient=-np.pi / 2, lag=1.0):
    eta = MatrixDelayMeasure(
        dim=1, atoms=((lag, [[coefficient]]),), tau_max=lag
    )
    return LinearFDE(dim=1, eta=eta, tau_max=lag)


def feedback_matrix(c1, c2=0.0):
    return np.array([[0.0, 0.0], [c1, c2]])


def vdp_problem(c1, c2=0.0, kappa=1.0, epsilon=0.1, distribution=None,
                t_end=200.0, dt=0.02, history=(0.1, 0.0),
                nonlinearity="van_der_pol"):
    """The delayed-feedback van der Pol benchmark as a parsed problem."""
    dist = distribution if distribution is not None else dirac(1.0)
    pert = PerturbationSpec(
        g_lin=VDP_G,
        kappa=kappa,
        epsilon=epsilon,
        structure_matrix=feedback_matrix(c1, c2),
        distribution=dist,
    )
    tau_max = max(1.0, dist.tau_max)
    return Problem(
        n=2,
        linear=rotation_fde(tau_max=tau_max),
        pert=pert,
        nonlinearity=nonlinearity,
        sim=SimConfig(t_end=t_end, dt=dt, history=tuple(history)),
        path="<memory>",
    )


def normalize_mass(atoms, pieces):
    raw = ScalarDelayDistribution(
        atoms=tuple(atoms),
        pieces=tuple(pieces),
        tau_max=max(
            [s for s, _ in atoms] + [pc.b for pc in pieces], default=0.0
        ),
    )
    mass, _, _ = moments(raw)
    atoms = tuple((s, w / mass) for s, w in atoms)
    pieces = tuple(
        DensityPiece.from_local(pc.a, pc.b, np.divide(pc.q, mass))
        for pc in pieces
    )
    return ScalarDelayDistribution(
        atoms=atoms,
        pieces=pieces,
        tau_max=raw.tau_max,
        probability=True,
    )


def random_distribution(rng, tau_bar=2.0, halfwidth=0.8, n_atoms=2,
                        n_pieces=1):
    """Random probability distribution supported near tau_bar."""
    atoms = [
        (tau_bar + rng.uniform(-halfwidth, halfwidth), rng.uniform(0.2, 1.0))
        for _ in range(n_atoms)
    ]
    pieces = []
    for _ in range(n_pieces):
        a = tau_bar + rng.uniform(-halfwidth, 0.0)
        b = tau_bar + rng.uniform(1e-2, halfwidth)
        c0 = rng.uniform(0.1, 1.0)
        c1 = rng.uniform(-c0 / (b + 1e-9), c0 / (b + 1e-9))
        pieces.append(DensityPiece(a, b, (c0, c1)))
    return normalize_mass(atoms, pieces)


def random_symmetric_distribution(rng, tau_bar=15.0, max_offset=1.4):
    """Random distribution that mirrors about its mean."""
    atoms = []
    for _ in range(rng.integers(0, 3)):
        d = rng.uniform(0.1, max_offset)
        w = rng.uniform(0.2, 1.0)
        atoms.extend([(tau_bar - d, 0.5 * w), (tau_bar + d, 0.5 * w)])
    pieces = []
    for _ in range(rng.integers(1, 3)):
        a = rng.uniform(0.05, max_offset * 0.9)
        b = rng.uniform(a + 0.05, max_offset)
        c0 = rng.uniform(0.1, 1.0)
        pieces.append(DensityPiece(tau_bar - b, tau_bar - a, (c0,)))
        pieces.append(DensityPiece(tau_bar + a, tau_bar + b, (c0,)))
    if rng.uniform() < 0.5:
        w = rng.uniform(0.1, max_offset)
        pieces.append(DensityPiece(tau_bar - w, tau_bar + w, (rng.uniform(0.1, 1.0),)))
    return normalize_mass(atoms, pieces)


def random_piece_specs(rng, dim=2, n_pieces=1, tau_max=2.0):
    """(a, b, matrix, lag coefficients) arguments for random MatrixPieces."""
    specs = []
    for _ in range(n_pieces):
        a = rng.uniform(0.0, tau_max * 0.5)
        b = rng.uniform(a + 0.1, tau_max)
        matrix = rng.normal(size=(dim, dim))
        specs.append((a, b, matrix, tuple(rng.normal(size=rng.integers(1, 4)))))
    return specs


def random_matrix_measure(rng, dim=2, n_atoms=2, n_pieces=1, tau_max=2.0):
    atoms = [
        (rng.uniform(0.0, tau_max), rng.normal(size=(dim, dim)))
        for _ in range(n_atoms)
    ]
    pieces = tuple(
        MatrixPiece(*spec)
        for spec in random_piece_specs(rng, dim, n_pieces, tau_max)
    )
    return MatrixDelayMeasure(
        dim=dim, atoms=tuple(atoms), pieces=pieces, tau_max=tau_max
    )


def regauge(hopf, a, b):
    """Re-gauge the planar bases by M = a I + b J, keeping (Psi, Phi) = I."""
    import dataclasses

    from hopfdelay.fde import I2

    M = a * I2 + b * J
    A = (a * I2 + b * J) / (a * a + b * b)
    return dataclasses.replace(
        hopf, Phi0=hopf.Phi0 @ M, Psi0=hopf.Psi0 @ A
    )


def synthetic_hopf(Phi0, Psi0):
    """HopfData carrier for hand-picked bases in algebraic identities."""
    from hopfdelay.fde import HopfData

    Phi0 = np.asarray(Phi0, dtype=float)
    Psi0 = np.asarray(Psi0, dtype=float)
    return HopfData(
        omega=1.0,
        v=Phi0[:, 0] - 1j * Phi0[:, 1],
        u=0.5 * (Psi0[:, 0] + 1j * Psi0[:, 1]),
        Phi0=Phi0,
        Psi0=Psi0,
        normalization_residual=0.0,
        ode_residual=0.0,
    )


def periodic_average_oracle(M, H, n_nodes=256):
    """Brute-force one-period average of exp(-Jt) K exp(Jt).

    Trapezoid on a 2*pi-periodic trigonometric polynomial, hence exact up to
    roundoff for moderate n_nodes.
    """
    K = integrate_matrix(
        M,
        lambda s, A: H.Psi0.T @ A @ H.Phi0 @ rot(-s),
        np.zeros((2, 2)),
    )
    ts = np.linspace(0.0, 2.0 * np.pi, n_nodes, endpoint=False)
    acc = np.zeros((2, 2))
    for t in ts:
        acc = acc + rot(-t) @ K @ rot(t)
    return acc / n_nodes


def finite_difference_derivatives(C, h_ref, tau_bar, H, step):
    """Central differences of p_mu about mu = 0, on pushforward measures.

    Negative mu reflects the reference about its mean, which extends p_mu
    smoothly to mu < 0; mu = 0 is the discrete delay.
    """

    def p(mu):
        dist = dirac(tau_bar) if mu == 0 else scale_about_mean(h_ref, mu)
        return p_from_structure(C, dist, H).p

    p0, pp, pm = p(0.0), p(step), p(-step)
    d1 = (pp - pm) / (2.0 * step)
    d2 = (pp - 2.0 * p0 + pm) / (step * step)
    return d1, d2
