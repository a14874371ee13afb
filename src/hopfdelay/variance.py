"""How the feedback strength p responds to delay variance at fixed mean.

p_mu is p evaluated on the fixed-mean family h_mu; mu = 0 is the discrete
delay at the mean, which is a local extremum of p_mu and, for symmetric
distributions, a global one.

h_mu is the image of the reference h under r -> tau_bar + mu (r - tau_bar),
so its trigonometric moments are a characteristic function of h:

    alpha_mu + i beta_mu = int exp(-i s) dh_mu(s)
                         = exp(-i tau_bar) int exp(-i mu (r - tau_bar)) dh(r),

and p_mu = alpha_mu tr(C_hat) + beta_mu tr(C_hat J). A whole mu grid is thus
one product exp(-i outer(mu, r - tau_bar)) @ w on a single quadrature (r, w)
of the reference, and no measure h_mu is built. The map preserves mass and
sign, so the checks made when the reference was built hold for every h_mu.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .averaging import p_from_structure
from .exceptions import NotSymmetric, SupportViolation
from .measures import dirac, is_symmetric, moments, stieltjes_integral

# entries of one row block of the mu-by-node phase matrix, which bounds the
# memory of a scan however long its grid
BLOCK_ENTRIES = 2**14


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


def _check_mean(h_ref, tau_bar):
    _, mean, _ = moments(h_ref)
    if abs(mean - tau_bar) > 1e-9 * max(1.0, abs(tau_bar)):
        raise ValueError(
            f"reference distribution mean {mean} differs from tau_bar {tau_bar}"
        )
    return mean


def _family(C, h_ref, tau_bar, mu_max, H):
    """p0 and a vectorized p_mu for 0 <= mu <= mu_max.

    The reference is integrated once, on subintervals no longer than
    1/max(1, mu_max) in lag units: the resolution a pushforward by mu_max
    would get from span-1 subintervals of its mu_max times wider pieces.
    """
    mean = _check_mean(h_ref, tau_bar)
    lags = [s for s, _ in h_ref.atoms] + [pc.a for pc in h_ref.pieces]
    lowest = min(lags, default=mean)
    # the lowest lag moves down monotonically in mu, so mu_max decides
    if mean * (1.0 - mu_max) + mu_max * lowest < -1e-12:
        raise SupportViolation(f"lag {lowest} maps below lag 0 at mu = {mu_max}")
    fs = p_from_structure(C, dirac(tau_bar), H)

    span = 1.0 / max(1.0, mu_max)
    offsets = [np.array([s - mean for s, _ in h_ref.atoms])]
    weights = [np.array([w for _, w in h_ref.atoms])]
    for pc in h_ref.pieces:
        r, w = pc.quadrature(span)
        offsets.append(r - mean)
        weights.append(w)
    offsets = np.concatenate(offsets)
    weights = np.concatenate(weights)
    rotation = np.exp(-1j * mean)
    rows = max(1, BLOCK_ENTRIES // max(1, offsets.size))

    def p(mus):
        mus = np.asarray(mus, dtype=float)
        if np.any(mus < 0):
            raise ValueError("mu must be nonnegative")
        out = np.empty(mus.size)
        for i in range(0, mus.size, rows):
            phases = np.outer(mus[i : i + rows], offsets)
            z = rotation * (np.exp(-1j * phases) @ weights)
            out[i : i + rows] = z.real * fs.tr_C_hat + z.imag * fs.tr_C_hat_J
        out[mus == 0.0] = fs.p
        return out

    return fs.p, p


def p_mu(C, h_ref, tau_bar, mu, H):
    """p for the variance-scaled distribution; mu = 0 is the discrete delay."""
    _, p = _family(C, h_ref, tau_bar, mu, H)
    return float(p([mu])[0])


def scan_mu(C, h_ref, tau_bar, grid, H):
    """Evaluate p_mu on a grid and refine every sign change by bisection."""
    grid = [float(m) for m in grid]
    if any(b <= a for a, b in zip(grid[:-1], grid[1:])):
        raise ValueError("mu grid must be strictly increasing")
    p0, p = _family(C, h_ref, tau_bar, grid[-1] if grid else 0.0, H)
    values = p(grid).tolist()

    changes = []
    for (a, pa), (b, pb) in zip(zip(grid, values), zip(grid[1:], values[1:])):
        if pa == 0.0 or pa * pb >= 0.0:
            continue
        lo, hi, plo = a, b, pa
        root = None
        while hi - lo > 1e-14:
            mid = 0.5 * (lo + hi)
            pm = p([mid])[0]
            if abs(pm) <= 1e-10:
                root = mid
                break
            if plo * pm < 0:
                hi = mid
            else:
                lo, plo = mid, pm
        if root is None:
            root = 0.5 * (lo + hi)
        changes.append((a, b, root))

    return MuScan(
        mu_grid=tuple(grid),
        p_values=tuple(values),
        sign_changes=tuple(changes),
        p0=p0,
    )


def local_derivatives(C, h_ref, tau_bar, H):
    """Analytic derivatives of p_mu at mu = 0: always (0, -sigma^2 * p0)."""
    _check_mean(h_ref, tau_bar)
    _, _, var = moments(h_ref)
    if var <= 0:
        raise ValueError("reference distribution must have positive variance")
    p0 = p_mu(C, h_ref, tau_bar, 0.0, H)
    return 0.0, -var * p0


def global_bound_check(C, h_ref, tau_bar, mu_samples, H, tol=1e-10):
    """For symmetric references, verify p_mu = p0 * int cos(mu (s - tau_bar)) dh.

    Also reports the attenuation factor per mu and whether |p_mu| <= |p0|
    holds on the samples.
    """
    mus = [float(mu) for mu in mu_samples]
    p0, p = _family(C, h_ref, tau_bar, max(mus, default=0.0), H)
    if not is_symmetric(h_ref, tol=1e-9):
        raise NotSymmetric("reference distribution is not symmetric about its mean")
    rows = []
    max_err = 0.0
    bound = True
    for mu, pm in zip(mus, p(mus).tolist()):
        att = float(
            stieltjes_integral(
                h_ref,
                lambda s: np.cos(mu * (s - tau_bar)),
                max_span=1.0 / max(1.0, mu),
            )
        )
        max_err = max(max_err, abs(pm - p0 * att))
        if abs(pm) > abs(p0) + 1e-12:
            bound = False
        rows.append((mu, pm, att))
    if max_err > tol:
        bound = False
    return SymmetricBoundReport(
        p0=p0,
        rows=tuple(rows),
        max_identity_error=max_err,
        bound_holds=bound,
    )
