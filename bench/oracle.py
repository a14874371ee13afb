"""Independent reference computations for the benchmark's correctness checks.

Nothing here imports hopfdelay. Every value is computed from the generated
problem dictionaries with NumPy and cmath: closed-form Laplace transforms of
the generated delay measures, the first-order root shift that the averaged
criterion stands for, Gauss-Legendre quadrature of the benchmark's own, and
the exact rightmost characteristic root by Newton iteration.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

GL_X, GL_W = np.polynomial.legendre.leggauss(24)


# --- transforms of scalar distributions --------------------------------------


def _phi_uniform(z):
    """sinh(z)/z, the transform of the centred uniform law on [-1, 1]."""
    return 1.0 if z == 0 else cmath.sinh(z) / z


def _phi_uniform_d(z):
    """d/dz of sinh(z)/z."""
    if abs(z) < 1e-8:
        return z / 3.0
    return (z * cmath.cosh(z) - cmath.sinh(z)) / (z * z)


def piece_nodes(a, b, poly, max_span):
    """Gauss-Legendre nodes and density-weighted weights of a polynomial piece.

    poly gives the density in the lag as ascending coefficients.
    """
    n = max(1, math.ceil((b - a) / max_span))
    edges = np.linspace(a, b, n + 1)
    half = 0.5 * np.diff(edges)[:, None]
    s = (edges[:-1, None] + half) + half * GL_X
    w = half * GL_W * np.polynomial.polynomial.polyval(s, poly)
    return s.ravel(), w.ravel()


def dist_nodes(dist, max_span=0.05):
    """Quadrature (lags, weights) of a discrete or custom distribution dict.

    Atoms are exact; polynomial pieces get Gauss-Legendre nodes on
    subintervals no longer than max_span.
    """
    atoms = dist.get("atoms", [])
    parts = [
        (
            np.array([a["lag"] for a in atoms], dtype=float),
            np.array([a["weight"] for a in atoms], dtype=float),
        )
    ]
    for d in dist.get("densities", []):
        a, b = d["interval"]
        parts.append(piece_nodes(a, b, d["coeffs"], max_span))
    return (
        np.concatenate([p[0] for p in parts]),
        np.concatenate([p[1] for p in parts]),
    )


def dist_hat(dist, lam):
    """h^(lam) = int exp(-lam s) dh(s), in closed form where one exists."""
    kind = dist["type"]
    if kind == "uniform":
        c, w = dist["mean"], dist["halfwidth"]
        return cmath.exp(-lam * c) * _phi_uniform(lam * w)
    if kind == "triangular":
        c, w = dist["mean"], dist["halfwidth"]
        return cmath.exp(-lam * c) * _phi_uniform(0.5 * lam * w) ** 2
    s, w = dist_nodes(dist, max_span=0.05 / max(1.0, abs(lam)))
    return complex(np.dot(w, np.exp(-lam * s)))


def dist_mean(dist):
    if dist["type"] in ("uniform", "triangular"):
        return dist["mean"]
    s, w = dist_nodes(dist)
    return float(np.dot(w, s))


def p_mu_phase(dist, omega, mus):
    """e^{-i omega tau_bar} int exp(-i omega mu (r - tau_bar)) dh(r) per mu.

    This is h_mu^(i omega) for the fixed-mean family h_mu (mean tau_bar,
    variance times mu**2), from closed forms for uniform and triangular
    kernels and from quadrature of the reference kernel otherwise.
    """
    mus = np.asarray(mus, dtype=float)
    kind = dist["type"]
    if kind in ("uniform", "triangular"):
        tau_bar, w = dist["mean"], dist["halfwidth"]
        x = mus * omega * w
        if kind == "uniform":
            phi = np.sinc(x / np.pi)  # sin x / x
        else:
            phi = np.sinc(x / (2.0 * np.pi)) ** 2  # (sin(x/2) / (x/2))**2
    else:
        tau_bar = dist_mean(dist)
        top = omega * float(np.max(mus, initial=0.0))
        s, w = dist_nodes(dist, max_span=0.25 / max(1.0, top))
        # chunks of at most 2**14 complex exponentials keep this process's
        # peak memory that of the program under test
        rows = max(1, 2**14 // s.size)
        phi = np.concatenate(
            [
                np.exp(-1j * omega * np.outer(mus[k : k + rows], s - tau_bar)) @ w
                for k in range(0, mus.size, rows)
            ]
        )
    return np.exp(-1j * omega * tau_bar) * phi, tau_bar


# --- matrix measures ------------------------------------------------------------


def measure_hat(measure, lam, deriv=False):
    """int exp(-lam s) dM(s), or int s exp(-lam s) dM(s) with deriv=True.

    Atoms are exact; densities must be constant on their interval (the
    generated uniform kernels) and use the closed form.
    """
    out = None
    for a in measure.get("atoms", []):
        s, M = a["lag"], np.asarray(a["matrix"], dtype=complex)
        term = M * cmath.exp(-lam * s) * (s if deriv else 1.0)
        out = term if out is None else out + term
    for d in measure.get("densities", []):
        lo, hi = d["interval"]
        M = np.asarray(d["matrix"], dtype=complex)
        (coeff,) = d["density_coeffs"]
        c, w = 0.5 * (lo + hi), 0.5 * (hi - lo)
        if deriv:
            # -d/dlam of exp(-lam c) phi(lam w)
            val = cmath.exp(-lam * c) * (
                c * _phi_uniform(lam * w) - w * _phi_uniform_d(lam * w)
            )
        else:
            val = cmath.exp(-lam * c) * _phi_uniform(lam * w)
        term = M * (coeff * (hi - lo) * val)
        out = term if out is None else out + term
    return out


def feedback_hat(fb, lam):
    """kappa-free transform of the feedback: C h^(lam)."""
    C = np.asarray(fb["structure_matrix"], dtype=complex)
    return C * dist_hat(fb["distribution"], lam)


def projected(u, v, M):
    return complex(u @ M @ v)


def averaged_terms(problem, omega, u, v):
    """(q, p) from the first-order shift of the root i*omega.

    With u^T Delta(i omega) = 0 = Delta(i omega) v, the perturbation
    eps*M moves the root by eps * u^T M^(i omega) v / u^T Delta'(i omega) v;
    the criterion is twice its real part in time units where omega = 1.
    """
    lam = 1j * omega
    n = problem["n"]
    dprime = np.eye(n) + measure_hat(problem["linear_terms"], lam, deriv=True)
    denom = projected(u, v, dprime)
    g = projected(u, v, measure_hat(problem["g_linearization"], lam))
    f = projected(u, v, feedback_hat(problem["feedback"], lam))
    q = 2.0 * (g / denom).real / omega
    p = 2.0 * (f / denom).real / omega
    return q, p, denom


# --- exact characteristic roots ------------------------------------------------


def char_det(problem, lam, eps_scale=1.0):
    """det of lam I - L^(lam) - eps (G^(lam) + kappa C h^(lam))."""
    n = problem["n"]
    eps = problem["epsilon"] * eps_scale
    fb = problem["feedback"]
    M = (
        lam * np.eye(n)
        - measure_hat(problem["linear_terms"], lam)
        - eps * measure_hat(problem["g_linearization"], lam)
        - eps * fb["kappa"] * feedback_hat(fb, lam)
    )
    return complex(np.linalg.det(M))


def newton_root(f, lam0, tol=1e-13, max_iter=50):
    """Newton iteration with a central-difference derivative."""
    lam = complex(lam0)
    for _ in range(max_iter):
        h = 1e-7 * max(1.0, abs(lam))
        d = f(lam)
        dp = (f(lam + h) - f(lam - h)) / (2.0 * h)
        step = d / dp
        lam -= step
        if abs(step) <= tol * max(1.0, abs(lam)):
            return lam
    raise ArithmeticError(f"Newton did not converge from {lam0}")
