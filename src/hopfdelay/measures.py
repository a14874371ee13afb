"""Scalar delay distributions and matrix-valued delay measures.

Lags are stored as nonnegative numbers s, meaning the term acts on x(t - s).
All trigonometric moments below are stated in this lag variable; the sign
convention is fixed here once and used consistently by the stability layer.
A measure's tau_max is derived, the largest atom lag or piece end; the
constructors refuse only a negative or NaN lag or end. A MatrixDelayMeasure
is also the linear part L of x'(t) = int dM(s) x(t - s) itself: an
undelayed one keeps the sum A of its atoms and A's eigenvalues, its
characteristic roots, as ode_matrix and ode_roots.

Every integral against a measure reads its node form `nodes(max_span)`:
lags[K] and weights[K] of its atoms (a matrix atom weighs 1), then of the
Gauss quadrature of its pieces on subintervals no longer than max_span, plus
mats[K, n, n] for a matrix measure, whose pieces are (matrix, DensityPiece).
The rule on k equal subintervals of [0, 1], gauss_rule(k), is built once per
process for each k; the node form and the mu-scan's subintervals read it.
Every smooth integrand takes its span from one phase rule, phase_span(freq):
Delta(lambda) at max |lambda|, the mu-scan at the largest mu, the moments at
1, and the eigenbasis, trigonometric moments and projections at the Hopf
frequency omega. The probability check reads no node form: each piece's
minimum is in closed form and the mass exact from the coefficients.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P

from .exceptions import DimensionMismatch, SupportViolation

GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
GL_U = 0.5 * (GL_NODES + 1.0)  # the same nodes on [0, 1]

# Phase, in radians, that an integrand's top frequency turns over one Gauss
# subinterval. 16-point Gauss-Legendre's error term 2.7e-45 f^(32) (Davis &
# Rabinowitz, Methods of Numerical Integration) is about 1e-35 there for a
# cubic times exp(i theta u), far below rounding.
MAX_PHASE = 4.0

MASS_TOL = 1e-12
MAX_DENSITY_DEGREE = 3
SYMMETRY_TOL = 1e-9  # is_symmetric: lag, weight and relative density slack
GAMMA_PIECES = 24  # cubic pieces of a truncated_gamma density

# entries of one row block of a batch-by-node product (1 MB when complex),
# which bounds the memory of a batched integral however long the batch is
BLOCK_ENTRIES = 2**16


def row_blocks(n_rows, n_cols):
    """Row slices of an n_rows x n_cols product, each of at most
    BLOCK_ENTRIES entries (one row when a row alone is longer)."""
    step = max(1, BLOCK_ENTRIES // max(1, n_cols))
    return [slice(i, i + step) for i in range(0, n_rows, step)]


def phase_span(freq):
    """Lag span over which exp(i max(1, freq) s) turns by MAX_PHASE radians."""
    return MAX_PHASE / max(1.0, float(freq))


def subinterval_count(width, max_span):
    """Number of equal subintervals of a width that are no longer than max_span."""
    return max(1, int(math.ceil(width / max_span - 1e-12)))


@functools.lru_cache(maxsize=64)
def gauss_rule(n):
    """The 16-point Gauss rule on n equal subintervals of [0, 1], built once
    per process for each n and read-only: centres and half-lengths (columns),
    then the nodes u and weights w in subinterval order. The table keeps the
    64 counts last asked for, 34 floats (272 bytes) per subinterval each."""
    edges = np.linspace(0.0, 1.0, n + 1)
    half = 0.5 * np.diff(edges)[:, None]
    centre = edges[:-1, None] + half
    rule = (centre, half, (centre + half * GL_NODES).ravel(), (half * GL_WEIGHTS).ravel())
    for arr in rule:
        arr.setflags(write=False)
    return rule


def subintervals(width, max_span):
    """Centres and half-lengths (columns) of the equal subintervals of [0, 1]
    no longer than max_span once [0, 1] is stretched to the given width."""
    return gauss_rule(subinterval_count(width, max_span))[:2]


def _compose(coeffs, a, width):
    """p(a + width*u) for p = coeffs, ascending: the floats, signed zeros
    included, of numpy's Polynomial composition (sums start from +0.0)."""
    c = np.polynomial.polyutils.as_series([coeffs])[0].tolist()
    q = []
    for ci in reversed(c):
        q = [0.0 + (lo * width + hi * a) for lo, hi in zip([0.0] + q, q + [0.0])]
        q[0] += ci
    return q


def _unit_cuts(c):
    """0, 1 and the real parts of the roots of c that lie in (0, 1), sorted."""
    roots = P.polyroots(c).real
    return np.sort(np.concatenate(([0.0, 1.0], roots[(roots > 0.0) & (roots < 1.0)])))


def _horner(q, u):
    """q(u) for ascending coefficients q, by Horner's rule, on a Python float
    or an array u >= 0: the floats of P.polyval, which starts from q[-1] + 0*u."""
    val = 0.0
    for c in reversed(q):
        val = val * u + c
    return val


def _unit_minimum(q):
    """Minimum of a cubic q (ascending) on [0, 1]: at 0, 1 or a critical
    point inside, the roots of the quadratic q' by the stable formula.
    Complex roots give their real part -b/(2a), as polyroots(q').real
    does; q is monotone then, so that point is never below both ends."""
    q1, q2, q3 = (*q[1:], 0.0, 0.0, 0.0)[:3]
    a, b, c = 3.0 * q3, 2.0 * q2, q1
    if a == 0.0:
        crit = (-c / b,) if b != 0.0 else ()
    else:
        disc = b * b - 4.0 * a * c
        if disc < 0.0:
            crit = (-b / (2.0 * a),)
        else:
            t = -0.5 * (b + math.copysign(math.sqrt(disc), b))
            crit = (t / a, c / t) if t != 0.0 else (0.0,)
    return min(_horner(q, u) for u in (0.0, 1.0, *crit) if 0.0 <= u <= 1.0)


def _exact_mass(atoms, pieces):
    """Total mass from the weights and coefficients: the atom weights plus,
    per piece, int_0^1 q du = sum_k q_k/(k + 1), summed exactly."""
    terms = [w for _, w in atoms]
    terms += [c / (k + 1) for pc in pieces for k, c in enumerate(pc.q)]
    try:
        return math.fsum(terms)
    except OverflowError:  # finite terms whose sum leaves the float range
        return math.inf


def _check_support(lags, pieces):
    """Reject a negative or NaN atom lag or density endpoint."""
    for s in lags:
        if not s >= -1e-12:
            raise SupportViolation(f"atom lag {s} is negative or NaN")
    for pc in pieces:
        if not -1e-12 <= pc.a <= pc.b:
            raise SupportViolation(
                f"density interval [{pc.a}, {pc.b}] has a negative or NaN end"
            )


@dataclass(frozen=True, init=False)
class DensityPiece:
    """Polynomial density (degree <= 3) on a compact lag interval [a, b].

    The density is stored in the local coordinate u = (s - a)/(b - a) as
    ascending coefficients q of (b - a) * density(s), so the piece's mass is
    int_0^1 q(u) du whatever its width or position, and an affine map of the
    lag moves only the endpoints (see pushforward). DensityPiece(a, b, coeffs)
    takes ascending coefficients of the density in the lag s and converts
    them once; from_local builds a piece from q directly.
    """

    a: float
    b: float
    q: tuple  # ascending coefficients of (b - a) * density in u = (s - a)/(b - a)

    def __init__(self, a, b, coeffs):
        width = float(b) - float(a)
        self._set_local(a, b, [0.0 + c * width for c in _compose(coeffs, a, width)])

    @classmethod
    def from_local(cls, a, b, q):
        piece = object.__new__(cls)
        piece._set_local(a, b, q)
        return piece

    def _set_local(self, a, b, q):
        a, b = float(a), float(b)
        if b <= a:
            raise ValueError(f"empty density interval [{a}, {b}]")
        if len(q) > MAX_DENSITY_DEGREE + 1:
            raise ValueError("density degree must be <= 3")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "q", tuple(float(c) for c in q))

    @property
    def width(self):
        return self.b - self.a

    def density(self, s):
        """Density per unit lag at lag s."""
        u = (np.asarray(s) - self.a) / self.width
        return P.polyval(u, self.q) / self.width

    def quadrature(self, max_span):
        """Gauss nodes as lags, with weights that include the density.

        The nodes are placed in u, on subintervals no longer than max_span in
        lag units, so the weights sum to the piece's mass to roundoff however
        narrow the piece is and however far from lag 0 it sits.
        """
        _, _, u, w = gauss_rule(subinterval_count(self.width, max_span))
        return self.a + self.width * u, w * _horner(self.q, u)

    def pushforward(self, m, c=0.0):
        """The image of the piece under s -> c + m*s (m != 0), of equal mass.

        Only the endpoints move; q is kept, reversed in u when m < 0.
        """
        e1, e2 = c + m * self.a, c + m * self.b
        lo, hi = (e1, e2) if m > 0 else (e2, e1)
        if lo < -1e-12:
            raise SupportViolation(
                f"density interval [{self.a}, {self.b}] maps below lag 0"
            )
        q = self.q if m > 0 else _compose(self.q, 1.0, -1.0)
        return DensityPiece.from_local(max(lo, 0.0), hi, q)


class _NodeForm:
    """The node form of a measure, built lazily and kept for the last
    subinterval counts asked for: its arrays depend on max_span only through
    the number of subintervals of each piece, so every max_span that gives
    the same counts (any max_span when there are no pieces) reads one build,
    however many row blocks, Newton steps or contour refinements ask."""

    def _densities(self):
        # a matrix measure's pieces are (matrix, DensityPiece) pairs
        return [p[-1] if isinstance(p, tuple) else p for p in self.pieces]

    @property
    def tau_max(self):
        """The largest atom lag or piece end, 0.0 for an empty measure."""
        ends = [s for s, _ in self.atoms] + [pc.b for pc in self._densities()]
        return max(ends, default=0.0)

    def nodes(self, max_span):
        key = tuple(subinterval_count(pc.width, max_span) for pc in self._densities())
        cached = self.__dict__.get("_nodes")
        if cached is None or cached[0] != key:
            arrays = tuple(np.concatenate(p) for p in zip(*self._node_parts(max_span)))
            for arr in arrays:
                arr.setflags(write=False)
            cached = (key, arrays)
            object.__setattr__(self, "_nodes", cached)
        return cached[1]


@dataclass(frozen=True)
class ScalarDelayDistribution(_NodeForm):
    """Atoms plus piecewise-polynomial densities on [0, tau_max].

    With probability=True the usual normalization is enforced: nonnegative
    weights and densities, total mass 1 (within MASS_TOL). The check reads
    no node form: each piece's exact minimum comes from the closed-form
    roots of q', and the mass from the weights and coefficients.
    nodes(max_span) returns (lags, weights), built on first use.
    """

    atoms: tuple = ()
    pieces: tuple = ()
    probability: bool = False

    def __post_init__(self):
        object.__setattr__(
            self, "atoms", tuple((float(s), float(w)) for s, w in self.atoms)
        )
        object.__setattr__(self, "pieces", tuple(self.pieces))
        _check_support([s for s, _ in self.atoms], self.pieces)
        if self.probability:
            self._check_probability()

    def _node_parts(self, max_span):
        atoms = (
            np.array([s for s, _ in self.atoms]),
            np.array([w for _, w in self.atoms]),
        )
        return [atoms] + [pc.quadrature(max_span) for pc in self.pieces]

    def _check_probability(self):
        for s, w in self.atoms:
            if w < -MASS_TOL:
                raise ValueError(f"negative atom weight {w} at lag {s}")
        for pc in self.pieces:
            if _unit_minimum(pc.q) / pc.width < -1e-10:
                raise ValueError(f"density negative on [{pc.a}, {pc.b}]")
        mass = _exact_mass(self.atoms, self.pieces)
        if not abs(mass - 1.0) <= MASS_TOL:  # a NaN weight or coefficient fails
            raise ValueError(f"total mass {mass} is not 1")

    def density_at(self, s):
        """Total density at lag s (atoms excluded)."""
        val = 0.0
        for pc in self.pieces:
            if pc.a - 1e-12 <= s <= pc.b + 1e-12:
                val += float(pc.density(s))
        return val


@dataclass(frozen=True)
class TrigMoments:
    """alpha = int cos(omega theta) dh, beta = int sin(omega theta) dh, theta = -s."""

    alpha: float
    beta: float


def stieltjes_integral(h, f, freq=1.0):
    """Integrate a (vectorized) function of the lag against the measure.

    The node form is at phase_span(freq), 4 lag units at the default
    frequency 1: machine precision for polynomials times trigonometric
    functions of frequency up to freq. f is evaluated once, on all the lags
    of the node form.
    """
    lags, weights = h.nodes(phase_span(freq))
    return np.dot(weights, np.asarray(f(lags)))


def moments(h):
    """Return (mass, mean, variance) of the measure."""
    mass = stieltjes_integral(h, np.ones_like)
    mean = stieltjes_integral(h, lambda s: s)
    var = stieltjes_integral(h, lambda s: (s - mean) ** 2)
    return float(mass), float(mean), float(var)


def trig_moments(h, omega=1.0):
    """First trigonometric moments at frequency omega in the theta = -s
    convention: alpha + i beta = int exp(-i omega s) dh, one product."""
    z = stieltjes_integral(h, lambda s: np.exp(-1j * omega * s), omega)
    return TrigMoments(alpha=float(z.real), beta=float(z.imag))


def _affine_pushforward(h, m, c):
    """Push the measure through s -> c + m*s (m != 0); mass is preserved.

    Only the endpoints of a density piece move: its local polynomial is
    kept, reversed in u when m < 0.
    """
    if m == 0:
        raise ValueError("affine scale must be nonzero")
    new_atoms = []
    for s, w in h.atoms:
        s2 = c + m * s
        if s2 < -1e-12:
            raise SupportViolation(f"atom lag {s} maps to negative lag {s2}")
        new_atoms.append((max(s2, 0.0), w))
    return ScalarDelayDistribution(
        atoms=tuple(new_atoms),
        pieces=tuple(pc.pushforward(m, c) for pc in h.pieces),
        probability=h.probability,
    )


def scale_about_mean(h, mu):
    """Radial rescaling about the mean: s -> tau_bar + mu*(s - tau_bar).

    Accepts any nonzero mu (negative mu reflects about the mean); the public
    variance family uses mu > 0 only.
    """
    _, tau_bar, _ = moments(h)
    return _affine_pushforward(h, mu, tau_bar * (1.0 - mu))


def scale_family(h, mu):
    """The fixed-mean family h_mu: same mean, variance multiplied by mu**2."""
    if mu <= 0:
        raise ValueError(
            "mu must be positive; use dirac(tau_bar) for the mu -> 0 limit"
        )
    return scale_about_mean(h, mu)


def is_symmetric(h):
    """True iff the distribution is a mirror image of itself about its mean."""
    _, tau_bar, _ = moments(h)
    unmatched = list(h.atoms)
    while unmatched:
        s, w = unmatched.pop()
        target = 2.0 * tau_bar - s
        if abs(target - s) <= SYMMETRY_TOL:
            continue  # atom sitting at the mean is its own mirror
        hit = None
        for k, (s2, w2) in enumerate(unmatched):
            if abs(s2 - target) <= SYMMETRY_TOL and abs(w2 - w) <= SYMMETRY_TOL:
                hit = k
                break
        if hit is None:
            return False
        unmatched.pop(hit)
    scale = 1.0
    samples = []
    for pc in h.pieces:
        nodes = pc.a + pc.width * GL_U
        samples.extend(nodes.tolist())
        scale = max(scale, float(np.max(np.abs(pc.density(nodes)))))
    for s in samples:
        mirror = h.density_at(2.0 * tau_bar - s)
        if abs(h.density_at(s) - mirror) > SYMMETRY_TOL * scale:
            return False
    return True


# --- constructors -----------------------------------------------------------


def dirac(tau_bar):
    """Point mass at lag tau_bar (the explicit mu -> 0 limit of the family)."""
    if tau_bar < 0:
        raise SupportViolation(f"negative lag {tau_bar}")
    return ScalarDelayDistribution(atoms=((tau_bar, 1.0),), probability=True)


def uniform(tau_bar, halfwidth):
    """Uniform density on [tau_bar - halfwidth, tau_bar + halfwidth]."""
    if halfwidth <= 0:
        raise ValueError("halfwidth must be positive")
    a, b = tau_bar - halfwidth, tau_bar + halfwidth
    if a < 0:
        raise SupportViolation(f"support [{a}, {b}] extends below lag 0")
    return ScalarDelayDistribution(
        pieces=(DensityPiece.from_local(a, b, (1.0,)),), probability=True
    )


def triangular(tau_bar, halfwidth):
    """Symmetric triangular density with support halfwidth about the mean."""
    if halfwidth <= 0:
        raise ValueError("halfwidth must be positive")
    a, b = tau_bar - halfwidth, tau_bar + halfwidth
    if a < 0:
        raise SupportViolation(f"support [{a}, {b}] extends below lag 0")
    rising = DensityPiece.from_local(a, tau_bar, (0.0, 1.0))
    falling = DensityPiece.from_local(tau_bar, b, (1.0, -1.0))
    return ScalarDelayDistribution(pieces=(rising, falling), probability=True)


def truncated_gamma(shape, rate, support):
    """Gamma(shape, rate) density restricted to [a, b], renormalized to mass 1.

    The density is spline-fit by interpolating cubics on GAMMA_PIECES
    subintervals (fit in each piece's local coordinate), so downstream
    quadrature stays exact.
    """
    a, b = float(support[0]), float(support[1])
    if a < 0 or b <= a:
        raise SupportViolation(f"invalid support [{a}, {b}]")
    if shape <= 0 or rate <= 0:
        raise ValueError("shape and rate must be positive")
    if a == 0.0 and shape < 1.0:
        raise ValueError("shape < 1 has a singular density at lag 0")
    # over its maximum on [a, b], in log space: s**(shape - 1) overflows
    mode = min(max((shape - 1.0) / rate, a), b)

    def pdf(s):
        with np.errstate(divide="ignore"):  # log 0 at s = 0 < mode
            power = (shape - 1.0) * np.log(s / mode) if shape != 1.0 else 0.0
        return np.exp(power - rate * (s - mode))

    edges = np.linspace(a, b, GAMMA_PIECES + 1)
    u = np.linspace(0.0, 1.0, 4)
    starts, widths = edges[:-1, None], np.diff(edges)[:, None]
    # one solve for all pieces, a right-hand side (column) per piece
    q = np.linalg.solve(np.vander(u, 4, increasing=True), (widths * pdf(starts + widths * u)).T)
    raw = [DensityPiece.from_local(lo, hi, c) for lo, hi, c in zip(edges, edges[1:], q.T)]
    mass = _exact_mass((), raw)
    pieces = tuple(
        DensityPiece.from_local(pc.a, pc.b, [c / mass for c in pc.q]) for pc in raw
    )
    return ScalarDelayDistribution(pieces=pieces, probability=True)


# --- matrix-valued measures -------------------------------------------------


def frozen(mat):
    """mat as a read-only float array: a read-only float array that owns its
    data is taken as it is (no other array can write to it), anything else
    is copied."""
    if (
        isinstance(mat, np.ndarray)
        and mat.dtype == float
        and mat.flags.owndata
        and not mat.flags.writeable
    ):
        return mat
    arr = np.array(mat, dtype=float)
    arr.setflags(write=False)
    return arr


def _frozen_matrix(mat, dim, what):
    arr = frozen(mat)
    if arr.shape != (dim, dim):
        raise DimensionMismatch(
            f"{what} matrix shape {arr.shape}, expected {(dim, dim)}"
        )
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} matrix has a non-finite entry")
    return arr


@dataclass(frozen=True)
class MatrixDelayMeasure(_NodeForm):
    """Matrix-valued Stieltjes measure: (lag, matrix) atoms plus
    (matrix, DensityPiece) pieces, dM(s) = matrix * density(s) ds on a piece.

    nodes(max_span) returns (lags, weights, mats).
    """

    dim: int
    atoms: tuple = ()
    pieces: tuple = ()

    def __post_init__(self):
        atoms = tuple(
            (float(s), _frozen_matrix(mat, self.dim, "atom")) for s, mat in self.atoms
        )
        pieces = tuple(
            (_frozen_matrix(mat, self.dim, "piece"), pc) for mat, pc in self.pieces
        )
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "pieces", pieces)
        _check_support([s for s, _ in self.atoms], self._densities())

    def _node_parts(self, max_span):
        n = self.dim
        atoms = (
            np.array([s for s, _ in self.atoms]),
            np.ones(len(self.atoms)),
            np.array([mat for _, mat in self.atoms]).reshape(-1, n, n),
        )
        parts = [atoms]
        for mat, pc in self.pieces:
            lags, weights = pc.quadrature(max_span)
            parts.append((lags, weights, np.broadcast_to(mat, (lags.size, n, n))))
        return parts

    @functools.cached_property
    def _ode(self):
        """(A, roots) of an undelayed M, else (None, None): see ode_matrix."""
        if self.pieces or any(s != 0.0 for s, _ in self.atoms):
            return None, None
        A = sum((a for _, a in self.atoms), np.zeros((self.dim, self.dim)))
        A.setflags(write=False)
        return A, tuple(complex(lam) for lam in np.linalg.eigvals(A))

    @property
    def ode_matrix(self):
        """A, the sum of the atoms, when M has no delay, else None: then
        x'(t) = A x(t), int exp(-lambda s) dM(s) = A for every lambda and
        int s exp(-lambda s) dM(s) = 0. Read-only, computed once per measure
        with ode_roots."""
        return self._ode[0]

    @property
    def ode_roots(self):
        """The characteristic roots of x'(t) = int dM(s) x(t - s) when M has
        no delay, else None: a tuple of Python complex numbers, kept, so the
        Hopf search and the certificate share them.

        With every atom at lag 0 and no density piece, det Delta(lambda) =
        det(lambda I - A) for A = ode_matrix: the roots are exactly the
        eigenvalues of A (the generator's collocation at tau_max = 0).
        """
        return self._ode[1]

    def total_variation(self):
        """Sum of |A| over the atoms plus |A| * int_0^1 |q(u)| du over the
        pieces, exact from the antiderivative of q cut at q's roots. |A| is
        the Frobenius norm by math.hypot, which squares no entry; a sum past
        the float range is inf on Python floats, with no overflow warning."""
        tv = sum(math.hypot(*a.flat) for _, a in self.atoms)
        for mat, pc in self.pieces:
            mass = np.abs(np.diff(P.polyval(_unit_cuts(pc.q), P.polyint(pc.q))))
            tv += math.hypot(*mat.flat) * float(np.sum(mass))
        return float(tv)


def integrate_matrix(measure, kernel, freq=1.0):
    """int kernel(s) dM(s) for a kernel vectorized over the lag array.

    kernel maps the node lags (K,) to values of shape (..., K), for instance
    a batch (B, K), of frequency up to freq (the node form of
    stieltjes_integral); the result has shape (..., n, n).
    """
    lags, weights, mats = measure.nodes(phase_span(freq))
    values = np.asarray(kernel(lags)) * weights
    total = values @ mats.reshape(lags.size, measure.dim**2)
    return total.reshape(values.shape[:-1] + mats.shape[1:])


def scale_matrix_measure(measure, omega):
    """Time rescaling t' = omega * t: lags multiply by omega, mass divides by omega.

    A density piece keeps its local polynomial; its endpoints scale by omega
    and its matrix divides by omega.
    """
    return MatrixDelayMeasure(
        dim=measure.dim,
        atoms=tuple((s * omega, mat / omega) for s, mat in measure.atoms),
        pieces=tuple(
            (mat / omega, pc.pushforward(omega)) for mat, pc in measure.pieces
        ),
    )
