"""How the feedback strength p responds to delay variance at fixed mean.

p_mu is p evaluated on the fixed-mean family h_mu; mu = 0 is the discrete
delay at the mean tau_bar of h, a local extremum of p_mu and, for symmetric
distributions, a global one. C and h are read at omega = H.omega on the
loaded measures, as p_from_structure reads them: C_hat = Psi0^T (C/omega) Phi0.

h_mu is the image of the reference h under r -> tau_bar + mu (r - tau_bar),
so its trigonometric moments are a characteristic function of h:

    alpha_mu + i beta_mu = int exp(-i omega s) dh_mu(s)
        = exp(-i omega tau_bar) int exp(-i omega mu (r - tau_bar)) dh(r),

and p_mu = alpha_mu tr(C_hat) + beta_mu tr(C_hat J), with no h_mu built.
On a Gauss quadrature of the reference, node r is a subinterval centre c
plus one of its piece's offsets +-x_g, so a mu costs exp(-i omega mu c) per
subinterval and per atom and exp(-i omega mu x_g), g < 8, per piece, not one
per node. The subintervals are as long as measures.phase_span allows at the
lag's top frequency omega mu_max: on each, the largest mu turns the phase
by at most measures.MAX_PHASE radians. The map preserves mass and sign, so
the checks made when the reference was built hold for every h_mu. scan_mu
refines all its sign changes in lockstep by Illinois false position, one p
call per level, about 4 levels a scan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P

from .averaging import structure_traces
from .exceptions import NotSymmetric, SupportViolation
from .measures import (
    GL_NODES, GL_WEIGHTS, is_symmetric, moments, phase_span, row_blocks, subintervals
)

# |p_mu| at or below it accepts a refinement point as a root; a grid point
# at or below it has no sign a bracket can rely on
ROOT_TOL = 1e-10
IDENTITY_TOL = 1e-10  # global_bound_check: largest |p_mu - p0 * attenuation|


@dataclass(frozen=True)
class MuScan:
    mu_grid: tuple
    p_values: tuple
    sign_changes: tuple  # (mu_lo, mu_hi, refined root)
    p0: float


@dataclass(frozen=True)
class SymmetricBoundReport:
    p0: float
    rows: tuple  # (mu, p_mu, attenuation factor)
    max_identity_error: float
    bound_holds: bool


def _family(C, h_ref, mu_max, H):
    """p0 and a vectorized p_mu for 0 <= mu <= mu_max, from one quadrature
    of the reference at phase_span(omega mu_max)."""
    _, mean, _ = moments(h_ref)
    omega = H.omega
    lags = [s for s, _ in h_ref.atoms] + [pc.a for pc in h_ref.pieces]
    lowest = min(lags, default=mean)
    # the lowest lag moves down monotonically in mu, so mu_max decides
    if mean * (1.0 - mu_max) + mu_max * lowest < -1e-12:
        raise SupportViolation(f"lag {lowest} maps below lag 0 at mu = {mu_max}")
    tr_C, tr_CJ = structure_traces(np.divide(C, omega), H)
    # p of the discrete delay at the mean: alpha + i beta = exp(-i omega mean)
    p0 = float(np.cos(omega * mean)) * tr_C - float(np.sin(omega * mean)) * tr_CJ

    # c: the atoms' lags, then each subinterval's centre, less the mean;
    # subinterval j has weights W[j] and the offsets X[:, k[j]] of its piece
    # (x_(15-g) = -x_g)
    span, n = phase_span(omega * mu_max), len(h_ref.pieces)
    atoms = np.array(h_ref.atoms).reshape(-1, 2)
    X, c = np.empty((8, n)), [atoms[:, 0] - mean]
    k, W = [np.empty(0, int)], [np.empty((0, 16))]
    for i, pc in enumerate(h_ref.pieces):
        centre, half = subintervals(pc.width, span)
        X[:, i] = pc.width * half[0, 0] * GL_NODES[:8]
        c.append((pc.a - mean) + pc.width * centre[:, 0])
        k.append(np.full(centre.size, i))
        W.append(half * GL_WEIGHTS * P.polyval(centre + half * GL_NODES, pc.q))
    c, k, W = (np.concatenate(v) for v in (c, k, W))
    # Re and Im of exp(-i mu x_g), g < 8, meet W_g + W_(15-g) and W_g - W_(15-g):
    # one product on a float view of the gathered factors (np.take keeps it contiguous)
    lo, hi = W[:, :8].T, W[:, :7:-1].T
    folded = np.stack((lo + hi, lo - hi), axis=-1).reshape(8, -1)
    phases = -1j * omega * np.concatenate((X.ravel(), c))
    first = X.size + len(atoms)  # phase of the first subinterval centre
    coef = np.exp(-1j * omega * mean) * (tr_C - 1j * tr_CJ)  # p = Re(z coef)

    def p(mus):
        mus = np.asarray(mus, dtype=float)
        if np.any(mus < 0):
            raise ValueError("mu must be nonnegative")
        out = np.empty(mus.size)
        for rows in row_blocks(mus.size, phases.size + 8 * k.size):
            e = np.exp(mus[rows, None] * phases)
            offset = np.take(e[:, : X.size].reshape(len(e), 8, n), k, axis=2)
            inner = np.einsum("rgx,gx->rx", offset.view(float), folded).view(complex)
            z = e[:, X.size : first] @ atoms[:, 1]
            z += np.einsum("rj,rj->r", e[:, first:], inner)
            out[rows] = (coef * z).real
        out[mus == 0.0] = p0
        return out

    return p0, p


def p_mu(C, h_ref, mu, H):
    """p for the variance-scaled distribution; mu = 0 is the discrete delay."""
    _, p = _family(C, h_ref, mu, H)
    return float(p([mu])[0])


def _refine(p, brackets):
    """A root of p in each bracket (a, b, p(a), p(b)), p(a) p(b) < 0.

    Illinois false position (Dowell & Jarratt 1971) on all brackets in
    lockstep, one p call per level: the next point is the secant point of
    the bracket's stored end values, and an end kept twice in a row has its
    stored value halved. The midpoint is taken instead when the secant point
    is not strictly inside, or when the last three levels together did not
    halve the bracket. So any four levels at least halve it, and a bracket
    of width w ends within about 4 log2(w / 1e-14) levels, four times
    bisection's.
    |p| <= ROOT_TOL accepts the point; a bracket stops at width 1e-14 or when
    no float lies strictly inside it, and its root is then its midpoint.
    """
    # [lo, hi, p(lo), p(hi), end kept last (0 lo, 1 hi), widths before the
    # last three levels]; an accepted point sets lo = hi = it
    state = [[a, b, pa, pb, None, *[np.inf] * 3] for a, b, pa, pb in brackets]
    live = state
    while live := [
        r for r in live if r[1] - r[0] > 1e-14 and r[0] < 0.5 * (r[0] + r[1]) < r[1]
    ]:
        points = []
        for r in live:
            lo, hi, plo, phi = r[:4]
            x = lo - plo * (hi - lo) / (phi - plo)
            if not lo < x < hi or hi - lo > 0.5 * r[5]:
                x = 0.5 * (lo + hi)
            r[5:] = *r[6:], hi - lo
            points.append(x)
        for r, x, px in zip(live, points, p(points).tolist()):
            if abs(px) <= ROOT_TOL:
                r[:2] = x, x
                continue
            keep = 0 if r[2] * px < 0 else 1  # the end that stays: 0 lo, 1 hi
            r[1 - keep], r[3 - keep] = x, px
            if r[4] == keep:
                r[2 + keep] *= 0.5
            r[4] = keep
    return [0.5 * (r[0] + r[1]) for r in state]


def scan_mu(C, h_ref, grid, H):
    """Evaluate p_mu on a grid and refine every sign change.

    A sign change is a pair of grid points with |p_mu| > ROOT_TOL and
    opposite signs that has no such point between them, so a run of points
    near zero between opposite signs is one bracket and rounding decides
    none; _refine takes all of them to a root in lockstep.
    """
    grid = [float(m) for m in grid]
    if any(b <= a for a, b in zip(grid[:-1], grid[1:])):
        raise ValueError("mu grid must be strictly increasing")
    p0, p = _family(C, h_ref, grid[-1] if grid else 0.0, H)
    values = p(grid).tolist()
    clear = [(m, v) for m, v in zip(grid, values) if abs(v) > ROOT_TOL]
    brackets = [
        (a, b, pa, pb) for (a, pa), (b, pb) in zip(clear, clear[1:]) if pa * pb < 0.0
    ]
    roots = _refine(p, brackets)
    return MuScan(
        mu_grid=tuple(grid),
        p_values=tuple(values),
        sign_changes=tuple((a, b, r) for (a, b, _, _), r in zip(brackets, roots)),
        p0=p0,
    )


def local_derivatives(C, h_ref, H):
    """Analytic derivatives of p_mu at mu = 0: always (0, -omega^2 sigma^2 p0)."""
    _, _, var = moments(h_ref)
    if var <= 0:
        raise ValueError("reference distribution must have positive variance")
    return 0.0, -H.omega**2 * var * p_mu(C, h_ref, 0.0, H)


def global_bound_check(C, h_ref, mu_samples, H):
    """For symmetric references, verify p_mu = p0 * int cos(omega mu (s - tau_bar)) dh.

    Also reports the attenuation factor per mu and whether |p_mu| <= |p0|
    holds on the samples. The factors come from one node form of the
    reference, on subintervals of phase_span(omega max mu).
    """
    mus = np.array(mu_samples, dtype=float).ravel()
    mu_max = mus.max(initial=0.0)
    _, mean, _ = moments(h_ref)
    p0, p = _family(C, h_ref, mu_max, H)
    if not is_symmetric(h_ref):
        raise NotSymmetric("reference distribution is not symmetric about its mean")
    lags, weights = h_ref.nodes(phase_span(H.omega * mu_max))
    att = np.empty(mus.size)
    for rows in row_blocks(mus.size, lags.size):
        att[rows] = np.cos(np.multiply.outer(H.omega * mus[rows], lags - mean)) @ weights
    pm = p(mus)
    max_err = float(np.max(np.abs(pm - p0 * att), initial=0.0))
    return SymmetricBoundReport(
        p0=p0,
        rows=tuple(zip(mus.tolist(), pm.tolist(), att.tolist())),
        max_identity_error=max_err,
        bound_holds=bool(
            max_err <= IDENTITY_TOL and np.all(np.abs(pm) <= abs(p0) + 1e-12)
        ),
    )
