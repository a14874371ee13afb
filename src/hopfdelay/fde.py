"""Hopf pair location, the spectral certificate and the critical eigenbasis.

The linear part L is its delay measure: a MatrixDelayMeasure M, with
x'(t) = int dM(s) x(t - s) and characteristic matrix
Delta(lambda) = lambda*I - int exp(-lambda*s) dM(s). Every function here
takes M itself and reads its node form, dim, total_variation() and, for an
undelayed M, its cached ode_matrix A and ode_roots: then the Hopf search and
the certificate count A's eigenvalues, and the eigenbasis reads A in place
of every integral. The order-epsilon part of a problem,
PerturbationSpec, is defined in problem.py; normalize_frequency, a reference
for the tests, rescales one without importing it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .exceptions import (
    ContourFailure,
    DegenerateEigenspace,
    HopfNotFound,
    MultiplePairs,
    NormalizationFailure,
)
from .measures import (
    MatrixDelayMeasure,
    _affine_pushforward,
    integrate_matrix,
    phase_span,
    row_blocks,
    scale_matrix_measure,
)

J = np.array([[0.0, -1.0], [1.0, 0.0]])
J.setflags(write=False)

I2 = np.eye(2)
I2.setflags(write=False)


@dataclass(frozen=True)
class HopfData:
    """Hopf frequency omega and the normalized planar eigenbases of time
    rescaled by omega: Phi(theta) = Phi0 exp(J theta), Psi(z) = Psi0 exp(J z)."""

    omega: float
    v: np.ndarray  # right null vector of Delta(i*omega)
    u: np.ndarray  # left null vector, scaled so u^T Delta'(i*omega) v = 1
    Phi0: np.ndarray  # n x 2
    Psi0: np.ndarray  # n x 2, (Psi, Phi) = I under the bilinear form
    normalization_residual: float
    ode_residual: float


@dataclass(frozen=True)
class SpectralCertificate:
    rectangle: dict
    root_count: int
    hopf_pair_found: bool


def _laplace(L, lam, kernel):
    """int kernel(s, exp(-lam s)) dM(s) for an array lam: lam.shape + (n, n).

    The batch shares one node form, at phase_span(max |lam|), machine
    precision for every lam, and runs in row blocks of it."""
    flat = np.ravel(lam)
    lags, weights, mats = L.nodes(phase_span(np.abs(flat).max(initial=0.0)))
    mats = mats.reshape(lags.size, L.dim**2)
    out = np.empty((flat.size, L.dim**2), dtype=complex)
    for rows in row_blocks(flat.size, lags.size):
        e = np.exp(np.multiply.outer(flat[rows], -lags))
        out[rows] = (kernel(lags, e) * weights) @ mats
    return out.reshape(np.shape(lam) + (L.dim, L.dim))


def char_matrix(L, lam):
    """Delta(lambda) for one lambda, or for an array of them (one product)."""
    lam = np.asarray(lam, dtype=complex)
    delta = -_laplace(L, lam, lambda s, e: e)
    delta.reshape(lam.shape + (L.dim**2,))[..., :: L.dim + 1] += lam[..., None]
    return delta


def _det(L, lam):
    """det Delta for a 1-D array of lambda."""
    return np.linalg.det(char_matrix(L, lam))


GRID_STEP = 0.01  # the Hopf search's frequency grid for a delayed L
MAX_GRID_POINTS = 10**5  # the longest grid one search evaluates: Var(eta) up to 1000
NEWTON_ITER = 60  # Newton steps from one seed
WINDING_ROUNDS = 40  # contour bisection rounds before ContourFailure


def _newton_root(L, lam0):
    lam = complex(lam0)
    for _ in range(NEWTON_ITER):
        h = 1e-6 * max(1.0, abs(lam))
        d, d_hi, d_lo = (complex(z) for z in _det(L, [lam, lam + h, lam - h]))
        dp = (d_hi - d_lo) / (2.0 * h)
        if dp == 0:
            return None
        step = d / dp
        lam = lam - step
        if abs(step) <= 1e-13 * max(1.0, abs(lam)):
            break
    return lam


def find_hopf_pair(L):
    """Locate the unique omega > 0 with det Delta(i*omega) = 0.

    An axis root i*omega has |omega| <= Var(eta), the total variation of
    the delay measure (Hale & Verduyn Lunel 1993), so L alone bounds the
    search. An undelayed L reads its axis roots off the eigenvalues of A
    (L.ode_roots). A delayed L scans a grid of step GRID_STEP up to
    Var(eta) + 2 GRID_STEP for magnitude minima of the determinant and
    polishes by Newton iteration, accepting roots only with |det| <= 1e-10;
    a grid of more than MAX_GRID_POINTS is refused. Either way a root counts
    when |Re| <= 1e-10 and Im > GRID_STEP/2, and roots within 1e-6 of each
    other count once.
    """
    roots = L.ode_roots
    if roots is None:
        roots = []
        var = L.total_variation()
        if var > MAX_GRID_POINTS * GRID_STEP:
            raise HopfNotFound(
                f"Var(eta) = {var:.6g} bounds the axis roots, but a search "
                f"grid to it would pass {MAX_GRID_POINTS} points"
            )
        omegas = np.arange(GRID_STEP, var + 2.0 * GRID_STEP, GRID_STEP)
        mags = np.abs(_det(L, 1j * omegas))
        padded = np.concatenate(([np.inf], mags, [np.inf]))
        for i in np.flatnonzero((mags <= padded[:-2]) & (mags <= padded[2:])):
            lam = _newton_root(L, 1j * omegas[i])
            if (
                lam is not None
                and abs(lam.real) <= 1e-10
                and abs(_det(L, [lam])[0]) <= 1e-10
            ):
                roots.append(lam)
    else:
        roots = sorted(roots, key=lambda lam: lam.imag)
    found = []
    for lam in roots:
        if abs(lam.real) <= 1e-10 and lam.imag > GRID_STEP * 0.5:
            if not any(abs(lam.imag - w) <= 1e-6 for w in found):
                found.append(float(lam.imag))
    if not found:
        raise HopfNotFound(
            f"no imaginary-axis characteristic root i*omega, omega > {GRID_STEP / 2}"
        )
    if len(found) > 1:
        raise MultiplePairs(found)
    return found[0]


class _RootOnContour(Exception):
    pass


def _winding_number(L, re_lo, re_hi, im_lo, im_hi, n0=64):
    """Winding of det Delta around the box: n0 points on its longest side
    and the same spacing on the others, bisected where the phase jumps."""
    re = (re_lo, re_hi, re_hi, re_lo)
    im = (im_lo, im_lo, im_hi, im_hi)
    corners = np.array([complex(x, y) for x, y in zip(re, im)])
    sides = corners[[1, 2, 3, 0]] - corners
    counts = np.ceil(n0 * np.abs(sides) / np.abs(sides).max()).astype(int)
    k = np.repeat(np.arange(4), counts)
    t = np.concatenate([np.arange(m) / m for m in counts])
    pts = np.append(corners[k] + sides[k] * t, corners[0])

    vals = _det(L, pts)
    scale = np.max(np.abs(vals))
    if scale == 0 or np.min(np.abs(vals)) < 1e-13 * scale:
        raise _RootOnContour

    for _ in range(WINDING_ROUNDS):
        diffs = np.angle(vals[1:] / vals[:-1])
        bad = np.flatnonzero(np.abs(diffs) >= 0.5 * np.pi)
        if bad.size == 0:
            total = float(diffs.sum()) / (2.0 * np.pi)
            k = round(total)
            if abs(total - k) > 0.25:
                raise ContourFailure(
                    f"winding {total} not within 0.25 of an integer"
                )
            return int(k)
        mids = 0.5 * (pts[bad] + pts[bad + 1])
        mid_vals = _det(L, mids)
        if np.min(np.abs(mid_vals)) < 1e-13 * scale:
            raise _RootOnContour
        pts = np.insert(pts, bad + 1, mids)
        vals = np.insert(vals, bad + 1, mid_vals)
    raise ContourFailure("winding increments did not settle under refinement")


CERT_DELTA = 0.05  # default certificate box: roots with Re >= -CERT_DELTA
EDGE_TOL = 1e-10  # an eigenvalue this close to an edge, times max(1, |lambda|), is on it


def _root_count(L, roots, re_lo, re_hi, im_lo, im_hi, n0=64):
    """The number of characteristic roots in the box: from the eigenvalues
    of an undelayed L (roots, L.ode_roots, counted on Python floats), else
    the winding number. Raises _RootOnContour for a root on the edge."""
    if roots is None:
        return _winding_number(L, re_lo, re_hi, im_lo, im_hi, n0=n0)
    count = 0
    for lam in roots:
        tol = EDGE_TOL * max(1.0, abs(lam))
        re, im = lam.real, lam.imag
        in_re = re_lo - tol <= re <= re_hi + tol
        in_im = im_lo - tol <= im <= im_hi + tol
        near_re = abs(re - re_lo) <= tol or abs(re - re_hi) <= tol
        near_im = abs(im - im_lo) <= tol or abs(im - im_hi) <= tol
        if (near_re and in_im) or (near_im and in_re):
            raise _RootOnContour
        count += in_re and in_im
    return count


def certificate_box(omega, delta=CERT_DELTA):
    """certify_spectrum's (delta, re_hi, im_lo, im_hi) for the box of analyze
    and certify, [-delta, 1] x [-R, R], R = max(2 omega, 5); omega = 0 is no pair."""
    R = max(2.0 * omega, 5.0)
    return delta, 1.0, -R, R


def certify_spectrum(L, delta, re_hi, im_lo, im_hi, omega):
    """Count characteristic roots in [-delta, re_hi] x [im_lo, im_hi].

    An undelayed L counts the eigenvalues of A in the box (ode_roots); an
    eigenvalue within EDGE_TOL * max(1, |lambda|) of an edge is on the
    contour. A delayed L counts by the winding number of det Delta. A root
    on the contour raises delta by 1e-6, at most 5 times.

    hopf_pair_found is true iff the count is exactly 2 and both roots sit on
    the imaginary axis at the Hopf frequency: a box of half-width 1e-6 about
    i*omega holds one root. Delta has real coefficients, so det Delta at the
    conjugate point is the conjugate and the box about -i*omega holds one
    alike. For an undelayed L every root is seen, so the pair is also
    refused when a root with Re >= -delta lies outside the box; for a
    delayed L the certificate covers the box only. omega is the frequency
    find_hopf_pair located; omega = 0 says it found no pair.
    """
    roots = L.ode_roots
    d = float(delta)
    count = None
    for _ in range(5):
        try:
            count = _root_count(L, roots, -d, re_hi, im_lo, im_hi)
            break
        except _RootOnContour:
            d += 1e-6
    if count is None:
        raise ContourFailure("characteristic root persists on the contour")

    hopf = False
    if omega and count == 2 and omega < im_hi:
        box = 1e-6
        try:
            upper = _root_count(L, roots, -box, box, omega - box, omega + box, n0=16)
            hopf = upper == 1
        except (_RootOnContour, ContourFailure):
            hopf = False
    if roots is not None:
        hopf = hopf and sum(lam.real >= -d for lam in roots) == count
    return SpectralCertificate(
        rectangle={"re": [-d, re_hi], "im": [im_lo, im_hi]},
        root_count=count,
        hopf_pair_found=hopf,
    )


def normalize_frequency(L, pert, omega):
    """Rescale time so the Hopf frequency becomes 1.

    Lags multiply by omega, measures (and the structure matrix) divide by
    omega. Returns the rescaled (L, pert), None for a part given as None.
    """
    if omega <= 0:
        raise ValueError("omega must be positive")
    L2 = None if L is None else scale_matrix_measure(L, omega)
    pert2 = None
    if pert is not None:
        if pert.factored:
            feedback = dict(
                structure_matrix=pert.structure_matrix / omega,
                distribution=_affine_pushforward(pert.distribution, omega, 0.0),
            )
        else:
            feedback = dict(f_general=scale_matrix_measure(pert.f_general, omega))
        g_lin = scale_matrix_measure(pert.g_lin, omega)
        pert2 = replace(pert, g_lin=g_lin, **feedback)
    return L2, pert2


def rotated(E, Phi0):
    """int dM(s) Phi0 rot(-omega s) from E = int exp(-i omega s) dM(s):
    rot(-x) = cos(x) I - sin(x) J, Re E = int cos(omega s) dM and Im E =
    -int sin(omega s) dM."""
    return E.real @ Phi0 + E.imag @ Phi0 @ J


GAUGE_ID = "svd-null-vector, largest component real positive"


def eigenbasis(L, omega=1.0):
    """Build the normalized planar eigenbases at the Hopf frequency omega.

    They are the bases of L_1, L in time rescaled by omega, read off L: with
    E0 = int exp(-i omega s) dM(s) and E1 = int s exp(-i omega s) dM(s) from
    one product, Delta_1(i) = Delta(i omega)/omega = i I - E0/omega and
    Delta_1'(i) = Delta'(i omega) = I + E1. An undelayed L reads E0 = A,
    its ode_matrix, and E1 = 0, and integrates nothing. Both null vectors
    come from one SVD of Delta_1(i): v from its last right singular vector,
    u from its last left one (Delta_1(i)^T has the same singular values, so
    one check of the second smallest covers both). The pairing is
    normalized via the closed form u^T Delta_1'(i) v = 1; the residuals,
    from E0 and E1 too, are the bilinear form's distance from I and that of
    Phi0 J from int dM_1(s) Phi0 rot(-s).
    """
    n = L.dim
    A = L.ode_matrix
    if A is None:
        E0, E1 = integrate_matrix(
            L, lambda s: np.exp(-1j * omega * s) * [np.ones_like(s), s], omega
        )
    else:  # E1 = 0; E0 complex, so that E0 / omega rounds as in the general path
        E0, E1 = A.astype(complex), None
    D = 1j * np.eye(n) - E0 / omega
    U, S, Vh = np.linalg.svd(D)
    if n > 1 and S[-2] < 1e-6:
        raise DegenerateEigenspace(
            f"second-smallest singular value {S[-2]:.3e} below 1e-6"
        )
    # u / (u^T Delta' v) below does not depend on the phase of u
    v, u = Vh[-1].conj(), U[:, -1].conj()
    vnorm = np.linalg.norm(v)
    if np.linalg.norm(D @ v) > 1e-10 * max(vnorm, 1.0):
        raise DegenerateEigenspace("Delta(i) v residual exceeds 1e-10")
    if np.linalg.norm(D.T @ u) > 1e-10 * max(np.linalg.norm(u), 1.0):
        raise DegenerateEigenspace("u^T Delta(i) residual exceeds 1e-10")

    # reproducible gauge (GAUGE_ID): largest component of v made real and positive,
    # the first within 1e-12 of it, so rounding breaks no tie such as |v_1| = |v_2|
    j = int(np.argmax(np.abs(v) >= (1.0 - 1e-12) * np.abs(v).max()))
    v = v * (v[j].conjugate() / abs(v[j]))

    nu = complex(u @ v if E1 is None else u @ (np.eye(n) + E1) @ v)
    if abs(nu) < 1e-10:
        raise NormalizationFailure(
            f"defective pairing u^T Delta'(i) v = {nu!r}"
        )
    u = u / nu

    Phi0 = np.column_stack([v.real, -v.imag])
    Psi0 = np.column_stack([2.0 * u.real, 2.0 * u.imag])

    pairing = Psi0.T @ Phi0
    if E1 is None:  # E1 = 0 and E0 = A is real: C and Bm below vanish
        flow = A @ Phi0  # rotated(A, Phi0)
    else:
        # the bilinear form on L_1: lag s, with B = Psi0^T dM_1(s) Phi0, adds
        # s int_0^1 rot(-s t) B rot(s t - s) dt; the part of B that commutes
        # with J turns by rot(-s), the part that anticommutes averages to
        # sin(s)/s
        C = Psi0.T @ rotated(E1, Phi0)  # int s B rot(-s)
        Bm = Psi0.T @ (-E0.imag / omega) @ Phi0  # int sin(s) B
        pairing = pairing + 0.5 * (C - J @ C @ J + Bm + J @ Bm @ J)
        flow = rotated(E0, Phi0)
    norm_res = float(np.linalg.norm(pairing - I2))

    ode_res = float(np.linalg.norm(Phi0 @ J - flow / omega))

    return HopfData(
        omega=float(omega),
        v=v,
        u=u,
        Phi0=Phi0,
        Psi0=Psi0,
        normalization_residual=norm_res,
        ode_residual=ode_res,
    )
