"""Linear FDE representation, Hopf pair location, and the critical eigenbasis.

The linear equation is x'(t) = int dM(s) x(t - s) with M a matrix-valued
delay measure on [0, tau_max]; its characteristic matrix is
Delta(lambda) = lambda*I - int exp(-lambda*s) dM(s).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import (
    ContourFailure,
    DegenerateEigenspace,
    DimensionMismatch,
    HopfNotFound,
    MultiplePairs,
    NormalizationFailure,
)
from .measures import (
    MatrixDelayMeasure,
    ScalarDelayDistribution,
    _affine_pushforward,
    integrate_matrix,
    scale_matrix_measure,
)

J = np.array([[0.0, -1.0], [1.0, 0.0]])
J.setflags(write=False)

I2 = np.eye(2)
I2.setflags(write=False)


def rot(theta):
    """exp(J * theta): rotation by theta in the plane."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


@dataclass(frozen=True)
class LinearFDE:
    dim: int
    eta: MatrixDelayMeasure
    tau_max: float

    def __post_init__(self):
        if self.eta.dim != self.dim:
            raise DimensionMismatch(
                f"measure dimension {self.eta.dim} != system dimension {self.dim}"
            )
        if self.eta.tau_max > self.tau_max + 1e-9:
            raise DimensionMismatch(
                f"measure support {self.eta.tau_max} exceeds tau_max {self.tau_max}"
            )


@dataclass(frozen=True)
class PerturbationSpec:
    """The order-epsilon structure: linearized drift G and feedback F.

    The feedback is preferably factored as F = C * h (structure matrix times
    scalar delay distribution); a general matrix measure is accepted and
    flagged via factored=False.
    """

    g_lin: MatrixDelayMeasure
    kappa: float
    epsilon: float
    structure_matrix: np.ndarray | None = None
    distribution: ScalarDelayDistribution | None = None
    f_general: MatrixDelayMeasure | None = None

    def __post_init__(self):
        if self.structure_matrix is not None:
            mat = np.array(self.structure_matrix, dtype=float)
            mat.setflags(write=False)
            object.__setattr__(self, "structure_matrix", mat)
            if self.distribution is None:
                raise ValueError("factored feedback needs a distribution")
        elif self.f_general is None:
            raise ValueError("feedback needs either C*h or a general measure")

    @property
    def factored(self):
        return self.structure_matrix is not None

    def feedback_measure(self):
        """The matrix measure F, assembling C*h when factored."""
        if not self.factored:
            return self.f_general
        C, h = self.structure_matrix, self.distribution
        atoms = tuple((s, w * C) for s, w in h.atoms)
        from .measures import MatrixPiece

        pieces = tuple(
            MatrixPiece.from_local(pc.a, pc.b, C, pc.q) for pc in h.pieces
        )
        tau_max = max([h.tau_max] + [s for s, _ in atoms] + [0.0])
        return MatrixDelayMeasure(
            dim=C.shape[0], atoms=atoms, pieces=pieces, tau_max=tau_max
        )


@dataclass(frozen=True)
class HopfData:
    """Certified Hopf frequency and normalized planar eigenbases."""

    omega: float
    v: np.ndarray  # right null vector of Delta(i*omega)
    u: np.ndarray  # left null vector, scaled so u^T Delta'(i) v = 1
    Phi0: np.ndarray  # n x 2
    Psi0: np.ndarray  # n x 2, (Psi, Phi) = I under the bilinear form
    normalization_residual: float
    ode_residual: float


@dataclass(frozen=True)
class SpectralCertificate:
    rectangle: dict
    root_count: int
    hopf_pair_found: bool


@dataclass(frozen=True)
class ScaleRecord:
    """Maps quantities of the omega-normalized system back to original time."""

    omega: float


def char_matrix(L, lam):
    lam = complex(lam)
    span = 1.0 / max(1.0, abs(lam))
    zero = np.zeros((L.dim, L.dim), dtype=complex)
    transform = integrate_matrix(
        L.eta, lambda s, A: np.exp(-lam * s) * A, zero, max_span=span
    )
    return lam * np.eye(L.dim) - transform


def _det(L, lam):
    return complex(np.linalg.det(char_matrix(L, lam)))


def _newton_root(L, lam0, max_iter=60):
    lam = complex(lam0)
    for _ in range(max_iter):
        d = _det(L, lam)
        h = 1e-6 * max(1.0, abs(lam))
        dp = (_det(L, lam + h) - _det(L, lam - h)) / (2.0 * h)
        if dp == 0:
            return None
        step = d / dp
        lam = lam - step
        if abs(step) <= 1e-13 * max(1.0, abs(lam)):
            break
    return lam


def find_hopf_pair(L, omega_max, grid_step=0.01):
    """Locate the unique omega > 0 with det Delta(i*omega) = 0.

    Scans a grid of step grid_step for magnitude minima of the determinant
    and polishes by Newton iteration; roots are accepted only on the axis
    (|Re| <= 1e-10, |det| <= 1e-10).
    """
    if omega_max <= 0:
        raise ValueError("omega_max must be positive")
    omegas = np.arange(grid_step, omega_max + 0.5 * grid_step, grid_step)
    mags = np.array([abs(_det(L, 1j * w)) for w in omegas])
    candidates = [
        i
        for i in range(len(omegas))
        if (i == 0 or mags[i] <= mags[i - 1])
        and (i == len(omegas) - 1 or mags[i] <= mags[i + 1])
    ]
    found = []
    for i in candidates:
        lam = _newton_root(L, 1j * omegas[i])
        if lam is None:
            continue
        if (
            abs(lam.real) <= 1e-10
            and abs(_det(L, lam)) <= 1e-10
            and grid_step * 0.5 < lam.imag <= omega_max + grid_step
        ):
            if not any(abs(lam.imag - w) <= 1e-6 for w in found):
                found.append(lam.imag)
    if not found:
        raise HopfNotFound(
            f"no imaginary-axis characteristic root in (0, {omega_max}]"
        )
    if len(found) > 1:
        raise MultiplePairs(found)
    return float(found[0])


class _RootOnContour(Exception):
    pass


def _winding_number(L, re_lo, re_hi, im_lo, im_hi, n0=64, max_rounds=40):
    corners = [
        complex(re_lo, im_lo),
        complex(re_hi, im_lo),
        complex(re_hi, im_hi),
        complex(re_lo, im_hi),
        complex(re_lo, im_lo),
    ]
    pts = []
    for a, b in zip(corners[:-1], corners[1:]):
        for t in np.linspace(0.0, 1.0, n0, endpoint=False):
            pts.append(a + (b - a) * t)
    pts.append(corners[0])

    vals = [_det(L, z) for z in pts]
    scale = max(abs(v) for v in vals)
    if scale == 0 or min(abs(v) for v in vals) < 1e-13 * scale:
        raise _RootOnContour

    for _ in range(max_rounds):
        diffs = np.angle(np.array(vals[1:]) / np.array(vals[:-1]))
        bad = np.flatnonzero(np.abs(diffs) >= 0.5 * np.pi)
        if bad.size == 0:
            total = float(diffs.sum()) / (2.0 * np.pi)
            k = round(total)
            if abs(total - k) > 0.25:
                raise ContourFailure(
                    f"winding {total} not within 0.25 of an integer"
                )
            return int(k)
        new_pts, new_vals = [], []
        bad_set = set(bad.tolist())
        for i in range(len(pts) - 1):
            new_pts.append(pts[i])
            new_vals.append(vals[i])
            if i in bad_set:
                mid = 0.5 * (pts[i] + pts[i + 1])
                val = _det(L, mid)
                if abs(val) < 1e-13 * scale:
                    raise _RootOnContour
                new_pts.append(mid)
                new_vals.append(val)
        new_pts.append(pts[-1])
        new_vals.append(vals[-1])
        pts, vals = new_pts, new_vals
    raise ContourFailure("winding increments did not settle under refinement")


def certify_spectrum(L, delta, re_hi, im_lo, im_hi, omega=None):
    """Count characteristic roots in [-delta, re_hi] x [im_lo, im_hi].

    hopf_pair_found is true iff the count is exactly 2 and both roots sit on
    the imaginary axis at the Hopf frequency. omega is that frequency when
    the caller has already located it; otherwise it is searched for here.
    """
    d = float(delta)
    count = None
    for _ in range(5):
        try:
            count = _winding_number(L, -d, re_hi, im_lo, im_hi)
            break
        except _RootOnContour:
            d += 1e-6
    if count is None:
        raise ContourFailure("characteristic root persists on the contour")

    hopf = False
    if omega is None:
        try:
            omega = find_hopf_pair(L, omega_max=max(im_hi, 1.0))
        except (HopfNotFound, MultiplePairs):
            omega = None
    if omega is not None and count == 2 and omega < im_hi:
        box = 1e-6
        try:
            upper = _winding_number(
                L, -box, box, omega - box, omega + box, n0=16
            )
            lower = _winding_number(
                L, -box, box, -omega - box, -omega + box, n0=16
            )
            hopf = upper == 1 and lower == 1
        except (_RootOnContour, ContourFailure):
            hopf = False
    return SpectralCertificate(
        rectangle={"re": [-d, re_hi], "im": [im_lo, im_hi]},
        root_count=count,
        hopf_pair_found=hopf,
    )


def normalize_frequency(L, pert, omega):
    """Rescale time so the Hopf frequency becomes 1.

    Lags multiply by omega, measures (and the structure matrix) divide by
    omega; the scale record maps reported time constants back.
    """
    if omega <= 0:
        raise ValueError("omega must be positive")
    L2 = LinearFDE(
        dim=L.dim,
        eta=scale_matrix_measure(L.eta, omega),
        tau_max=L.tau_max * omega,
    )
    pert2 = None
    if pert is not None:
        kwargs = dict(
            g_lin=scale_matrix_measure(pert.g_lin, omega),
            kappa=pert.kappa,
            epsilon=pert.epsilon,
        )
        if pert.factored:
            kwargs["structure_matrix"] = pert.structure_matrix / omega
            kwargs["distribution"] = _affine_pushforward(
                pert.distribution, omega, 0.0
            )
        else:
            kwargs["f_general"] = scale_matrix_measure(pert.f_general, omega)
        pert2 = PerturbationSpec(**kwargs)
    return L2, pert2, ScaleRecord(omega=omega)


def bilinear_pairing(L, Psi0, Phi0):
    """Direct quadrature of the bilinear form applied to the planar bases.

    Psi(z) = Psi0 exp(J z) on [0, tau], Phi(theta) = Phi0 exp(J theta) on
    [-tau, 0]; returns the 2x2 pairing matrix.
    """
    from .measures import GL_NODES, GL_WEIGHTS, _subintervals

    def inner(s, A):
        if s <= 0:
            return np.zeros((2, 2))
        B = Psi0.T @ A @ Phi0
        acc = np.zeros((2, 2))
        for lo, hi in _subintervals(-s, 0.0, 1.0):
            half = 0.5 * (hi - lo)
            nodes = 0.5 * (hi + lo) + half * GL_NODES
            for z, wq in zip(nodes, GL_WEIGHTS):
                acc = acc + (half * wq) * (rot(-(z + s)) @ B @ rot(z))
        return acc

    return Psi0.T @ Phi0 + integrate_matrix(L.eta, inner, np.zeros((2, 2)))


def char_matrix_derivative(L, lam):
    """Delta'(lambda) = I + int s exp(-lambda s) dM(s)."""
    lam = complex(lam)
    span = 1.0 / max(1.0, abs(lam))
    zero = np.zeros((L.dim, L.dim), dtype=complex)
    return np.eye(L.dim) + integrate_matrix(
        L.eta, lambda s, A: s * np.exp(-lam * s) * A, zero, max_span=span
    )


def eigenbasis(L):
    """Build the normalized planar eigenbases for a system with omega = 1.

    Null vectors come from the SVD of Delta(i); the pairing is normalized via
    the closed form u^T Delta'(i) v = 1 and cross-checked by direct
    quadrature of the bilinear form.
    """
    n = L.dim
    D = char_matrix(L, 1j)
    _, S, Vh = np.linalg.svd(D)
    if n > 1 and S[-2] < 1e-6:
        raise DegenerateEigenspace(
            f"second-smallest singular value {S[-2]:.3e} below 1e-6"
        )
    v = Vh[-1].conj()
    _, St, Vth = np.linalg.svd(D.T)
    if n > 1 and St[-2] < 1e-6:
        raise DegenerateEigenspace(
            f"adjoint second-smallest singular value {St[-2]:.3e} below 1e-6"
        )
    u = Vth[-1].conj()
    vnorm = np.linalg.norm(v)
    if np.linalg.norm(D @ v) > 1e-10 * max(vnorm, 1.0):
        raise DegenerateEigenspace("Delta(i) v residual exceeds 1e-10")
    if np.linalg.norm(D.T @ u) > 1e-10 * max(np.linalg.norm(u), 1.0):
        raise DegenerateEigenspace("u^T Delta(i) residual exceeds 1e-10")

    # reproducible gauge: largest component of v made real and positive
    j = int(np.argmax(np.abs(v)))
    v = v * (v[j].conjugate() / abs(v[j]))

    Dp = char_matrix_derivative(L, 1j)
    nu = complex(u @ Dp @ v)
    if abs(nu) < 1e-10:
        raise NormalizationFailure(
            f"defective pairing u^T Delta'(i) v = {nu!r}"
        )
    u = u / nu

    Phi0 = np.column_stack([v.real, -v.imag])
    Psi0 = np.column_stack([2.0 * u.real, 2.0 * u.imag])

    pairing = bilinear_pairing(L, Psi0, Phi0)
    norm_res = float(np.linalg.norm(pairing - I2))

    zero = np.zeros((n, 2))
    reproduced = integrate_matrix(
        L.eta, lambda s, A: A @ Phi0 @ rot(-s), zero
    )
    ode_res = float(np.linalg.norm(Phi0 @ J - reproduced))

    return HopfData(
        omega=1.0,
        v=v,
        u=u,
        Phi0=Phi0,
        Psi0=Psi0,
        normalization_residual=norm_res,
        ode_residual=ode_res,
    )
