import math
import pathlib
import tracemalloc

import numpy as np
import pytest

from _helpers import (
    attenuation_reference,
    finite_difference_derivatives,
    flat_p_mu,
    random_distribution,
    random_symmetric_distribution,
    serial_illinois_sign_changes,
    serial_sign_changes,
    synthetic_hopf,
)
from hopfdelay import variance
from hopfdelay.averaging import p_from_structure
from hopfdelay.exceptions import NotSymmetric, SupportViolation
from hopfdelay.measures import (
    DensityPiece,
    ScalarDelayDistribution,
    dirac,
    moments,
    scale_family,
    triangular,
    truncated_gamma,
    uniform,
)
from hopfdelay.pipeline import analyze
from hopfdelay.problem import load_problem
from hopfdelay.variance import (
    global_bound_check,
    local_derivatives,
    p_mu,
    scan_mu,
)

TAU = 15.0
PROBLEMS = pathlib.Path(__file__).resolve().parents[1] / "problems"


SCAN_CASES = [
    ("uniform", np.linspace(0.05, 4.0 * np.pi, 200)),
    ("triangular", np.linspace(0.1, 8.0, 60)),
    ("custom", np.linspace(0.1, 12.0, 150)),
    ("uniform100", np.linspace(0.5, 98.0, 600)),
]


def _scan_case(kind, grid):
    """The reference distribution of a named scan case, its mean and grid."""
    if kind == "custom":
        rng = np.random.default_rng(3)
        h = random_distribution(rng, tau_bar=TAU, halfwidth=0.8, n_pieces=3)
    else:
        h = {
            "uniform": uniform(TAU, 1.0),
            "triangular": triangular(TAU, 1.0),
            "uniform100": uniform(100.0, 1.0),
        }[kind]
    return h, moments(h)[1], grid.tolist()


def _stopped(p, root):
    """root meets a stopping rule of the refinement: |p| <= 1e-10 there, or
    p changes sign across the 1e-14 (or adjacent-float) bracket about it."""
    if abs(p([root])[0]) <= 1e-10:
        return True
    d = max(1e-14, 2.0 * math.ulp(root))
    lo, hi = p([root - d, root + d])
    return lo * hi <= 0.0


@pytest.fixture
def C():
    return np.array([[0.4, -1.1], [0.9, 0.3]])


class TestPMu:
    def test_uniform_closed_form(self, C, vdp_hopf):
        h = uniform(TAU, 1.0)
        p0 = p_mu(C, h, 0.0, vdp_hopf)
        for mu in np.linspace(0.3, 12.0, 25):
            want = np.sin(mu) / mu * p0
            assert p_mu(C, h, mu, vdp_hopf) == pytest.approx(want, abs=1e-10)

    def test_mu_zero_is_discrete_delay(self, C, vdp_hopf):
        h = triangular(TAU, 1.0)
        assert p_mu(C, h, 0.0, vdp_hopf) == pytest.approx(
            p_from_structure(C, dirac(TAU), vdp_hopf).p, abs=1e-15
        )

    def test_point_reference_constant(self, C, vdp_hopf):
        for mu in (0.0, 0.5, 3.0):
            assert p_mu(C, dirac(TAU), mu, vdp_hopf) == pytest.approx(
                p_mu(C, dirac(TAU), 0.0, vdp_hopf), abs=1e-14
            )

    def test_reference_independence_at_mu_zero(self, C, vdp_hopf):
        # p0 only depends on the mean, not on the reference shape
        want = p_from_structure(C, dirac(TAU), vdp_hopf).p
        assert p_mu(C, uniform(TAU, 1.0), 0.0, vdp_hopf) == pytest.approx(
            want, abs=1e-12
        )
        assert p_mu(C, triangular(TAU, 0.7), 0.0, vdp_hopf) == pytest.approx(
            want, abs=1e-12
        )
        rng = np.random.default_rng(53)
        for _ in range(3):
            h = random_distribution(rng, tau_bar=TAU, halfwidth=1.0)
            _, mean, _ = moments(h)
            same_mean = p_from_structure(C, dirac(mean), vdp_hopf).p
            assert p_mu(C, h, 0.0, vdp_hopf) == pytest.approx(
                same_mean, abs=1e-12
            )

    @pytest.mark.parametrize(
        "name", ["vdp_uniform", "custom_asymmetric", "fast_rotation_uniform"]
    )
    def test_mu_one_is_analyze_p(self, name):
        # h_1 = h: the family read on the loaded C and h at analyze's basis
        # gives analyze's p, at omega = 1 and at omega = 12
        problem = load_problem(PROBLEMS / f"{name}.json")
        result = analyze(problem)
        pert = problem.pert
        got = p_mu(pert.structure_matrix, pert.distribution, 1.0, result.hopf)
        assert got == pytest.approx(result.report.p, rel=1e-12, abs=0.0)

    def test_negative_mu_rejected(self, C, vdp_hopf):
        with pytest.raises(ValueError):
            p_mu(C, uniform(TAU, 1.0), -0.5, vdp_hopf)


class TestScanMu:
    def test_uniform_sign_changes_at_k_pi(self, C, vdp_hopf):
        h = uniform(TAU, 1.0)
        grid = np.linspace(0.05, 4.0 * np.pi, 200)
        scan = scan_mu(C, h, grid.tolist(), vdp_hopf)
        roots = [r for _, _, r in scan.sign_changes]
        assert len(roots) >= 3
        for r in roots:
            k = round(r / np.pi)
            assert abs(r - k * np.pi) <= 1e-6
            assert abs(p_mu(C, h, r, vdp_hopf)) <= 1e-9

    def test_symmetric_triangular_bounded(self, C, vdp_hopf):
        h = triangular(TAU, 1.0)
        grid = np.linspace(0.1, 8.0, 60)
        scan = scan_mu(C, h, grid.tolist(), vdp_hopf)
        assert all(abs(p) <= abs(scan.p0) + 1e-12 for p in scan.p_values)

    def test_trivially_zero_feedback(self, vdp_hopf):
        # C_hat traceless both ways: p vanishes identically, no brackets
        H = synthetic_hopf(np.eye(2), np.eye(2))
        C0 = np.array([[1.0, 0.0], [0.0, -1.0]])
        scan = scan_mu(C0, uniform(TAU, 1.0), [0.5, 1.5, 2.5, 3.5], H)
        assert all(abs(p) <= 1e-14 for p in scan.p_values)
        assert scan.sign_changes == ()

    def test_grid_must_increase(self, C, vdp_hopf):
        with pytest.raises(ValueError):
            scan_mu(C, uniform(TAU, 1.0), [1.0, 1.0, 2.0], vdp_hopf)

    def test_matches_pushforward(self, C, vdp_hopf, fast_hopf):
        # p_mu from the characteristic function of the reference agrees with
        # p on the measure h_mu built by pushforward, from mu = 1e-8 up to
        # the largest mu that keeps the support at lags >= 0, at the Hopf
        # frequencies 1 and 2.5. The pushforward places its nodes at absolute
        # lags c + mu*s with |c|, |mu*s| ~ mu*tau, so its own phases carry a
        # rounding of up to 2 eps mu tau (4e-10 at tau = mu = 1000); with
        # atoms, which do not average it out, that is above the 1e-14 tau
        # scale of the comparison.
        for H in (vdp_hopf, fast_hopf):
            rng = np.random.default_rng(67)
            for tau_bar in (15.0, 1000.0):
                for h in (
                    uniform(tau_bar, 1.0),
                    triangular(tau_bar, 1.0),
                    random_distribution(rng, tau_bar=tau_bar, halfwidth=0.8),
                ):
                    _, mean, _ = moments(h)
                    a_min = min([s for s, _ in h.atoms] + [pc.a for pc in h.pieces])
                    limit = mean / (mean - a_min)
                    grid = np.geomspace(1e-8, limit * (1.0 - 1e-9), 40)
                    want = np.array(
                        [p_from_structure(C, scale_family(h, m), H).p for m in grid]
                    )
                    eps = np.finfo(float).eps
                    tol = (1e-14 * tau_bar + 2 * eps * grid * mean) * np.max(np.abs(want))
                    scan = scan_mu(C, h, grid, H)
                    assert np.all(np.abs(np.array(scan.p_values) - want) <= tol)
                    for m, w, t in zip(grid[::13], want[::13], tol[::13]):
                        assert abs(p_mu(C, h, m, H) - w) <= t

    def test_support_limit(self, C, vdp_hopf):
        # h_mu keeps lags >= 0 only for mu <= tau_bar / (tau_bar - a_min)
        h = uniform(TAU, 1.0)
        limit = TAU / (TAU - (TAU - 1.0))
        scan_mu(C, h, [1.0, limit * (1.0 - 1e-9)], vdp_hopf)
        with pytest.raises(SupportViolation):
            scan_mu(C, h, [1.0, 2.0, limit * 1.01], vdp_hopf)
        with pytest.raises(SupportViolation):
            p_mu(C, h, limit * 1.01, vdp_hopf)

    @pytest.mark.parametrize("middle", [1e-12, -1e-12])
    @pytest.mark.parametrize(
        "power, want", [(1, ((0.5, 1.5),)), (2, ())], ids=["opposite", "equal"]
    )
    def test_near_zero_grid_value_has_no_sign(self, monkeypatch, middle, power, want):
        # p = (1 - mu)^power + middle on the grid 0.5, 1, 1.5: a grid value
        # within 1e-10 of zero takes no part in a bracket, so between opposite
        # clear signs the sign change is the one bracket around it, and
        # between equal signs there is none, whatever its rounding
        def family(C, h_ref, mu_max, H):
            return 0.0, lambda mus: (1.0 - np.asarray(mus)) ** power + middle

        monkeypatch.setattr(variance, "_family", family)
        scan = scan_mu(None, None, [0.5, 1.0, 1.5], None)
        assert tuple(c[:2] for c in scan.sign_changes) == want
        assert all(abs(1.0 - r + middle) <= 1e-10 for _, _, r in scan.sign_changes)

    def test_empty_grid(self, C, vdp_hopf):
        scan = scan_mu(C, uniform(TAU, 1.0), [], vdp_hopf)
        assert scan.mu_grid == scan.p_values == scan.sign_changes == ()
        assert scan.p0 == p_from_structure(C, dirac(TAU), vdp_hopf).p

    def test_memory_is_blocked(self):
        # 500 mu points times ~32,000 nodes would be ~250 MB as one complex
        # matrix; row blocks keep the peak to a few node-length arrays. The
        # structure matrix is traceless both ways, so p vanishes identically
        # and no bisection runs: the peak is that of the grid product.
        H = synthetic_hopf(np.eye(2), np.eye(2))
        C0 = np.array([[1.0, 0.0], [0.0, -1.0]])
        h = uniform(1000.0, 1.0)
        grid = np.linspace(1.0, 999.0, 500)
        tracemalloc.start()
        try:
            scan = scan_mu(C0, h, grid, H)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(scan.p_values) == 500
        assert peak < 8e6


class TestFactoredScan:
    def test_matches_flat_product(self, C, vdp_hopf):
        # the factored characteristic function against one exponential per
        # Gauss node, on atoms plus 1-4 pieces of unequal widths, from
        # mu = 1e-8 up to the support limit
        rng = np.random.default_rng(11)
        for tau_bar in (15.0, 1000.0):
            for n_pieces in (1, 2, 3, 4):
                h = random_distribution(
                    rng, tau_bar=tau_bar, halfwidth=0.8, n_atoms=2, n_pieces=n_pieces
                )
                _, mean, _ = moments(h)
                a_min = min([s for s, _ in h.atoms] + [pc.a for pc in h.pieces])
                grid = np.geomspace(1e-8, mean / (mean - a_min) * (1.0 - 1e-9), 40)
                want = flat_p_mu(C, h, grid[-1], vdp_hopf)(grid)
                tol = 1e-13 * np.max(np.abs(want))
                scan = scan_mu(C, h, grid, vdp_hopf)
                assert np.all(np.abs(np.array(scan.p_values) - want) <= tol)
                for m, w in zip(grid[::13], want[::13]):
                    assert abs(p_mu(C, h, m, vdp_hopf) - w) <= tol

    @pytest.mark.parametrize(
        "tau_bar, halfwidth, mu_max",
        [(15.0, 5.0, 0.4), (15.0, 5.0, 2.9), (15.0, 0.8, 17.3), (1000.0, 0.8, 900.0)],
    )
    def test_subintervals_turn_at_most_four_radians(
        self, C, vdp_hopf, monkeypatch, tau_bar, halfwidth, mu_max
    ):
        # each piece is cut once into ceil(width max(1, mu_max) / 4)
        # subintervals, so mu_max turns the phase by at most 4 rad on each,
        # its weights come from that cut (no second one in quadrature), and
        # p_mu stays on the 1-radian flat product
        counts = []
        split = variance.subintervals

        def counted(width, max_span):
            centre, half = split(width, max_span)
            counts.append(centre.size)
            return centre, half

        def no_quadrature(self, max_span):
            raise AssertionError("quadrature called")

        rng = np.random.default_rng(29)
        h = random_distribution(rng, tau_bar, halfwidth, n_atoms=1, n_pieces=4)
        _, mean, _ = moments(h)
        monkeypatch.setattr(variance, "subintervals", counted)
        monkeypatch.setattr(DensityPiece, "quadrature", no_quadrature)
        _, p = variance._family(C, h, mu_max, vdp_hopf)
        monkeypatch.undo()
        want = [math.ceil(pc.width * max(1.0, mu_max) / 4.0) for pc in h.pieces]
        assert counts == want and sum(want) > len(want)
        mus = np.linspace(0.0, mu_max, 41)
        flat = flat_p_mu(C, h, mu_max, vdp_hopf)(mus)
        assert np.abs(p(mus) - flat).max() <= 1e-13 * np.abs(flat).max()

    @pytest.mark.parametrize("kind, grid", SCAN_CASES)
    def test_lockstep_matches_serial_refinement(self, C, vdp_hopf, kind, grid):
        # the same points and stopping rules as one bracket at a time on the
        # same p_mu: every mu_lo, mu_hi and root is the same float
        h, mean, grid = _scan_case(kind, grid)
        scan = scan_mu(C, h, grid, vdp_hopf)
        _, p = variance._family(C, h, grid[-1], vdp_hopf)
        want = serial_illinois_sign_changes(p, grid)
        assert scan.sign_changes == want
        assert len(want) >= {"triangular": 0, "uniform100": 30}.get(kind, 1)

    @pytest.mark.parametrize("kind, grid", SCAN_CASES)
    def test_roots_agree_with_bisection(self, C, vdp_hopf, kind, grid):
        # bisection on the flat product finds the same brackets, and each
        # method's root is inside its bracket and stopped by the rules; where
        # |p| <= 1e-10 stops both, they are about 2e-10 / |p'| apart at most,
        # with the secant slope over the bracket for |p'|
        h, mean, grid = _scan_case(kind, grid)
        scan = scan_mu(C, h, grid, vdp_hopf)
        _, factored = variance._family(C, h, grid[-1], vdp_hopf)
        flat = flat_p_mu(C, h, grid[-1], vdp_hopf)
        bisected = serial_sign_changes(flat, grid)
        assert [c[:2] for c in scan.sign_changes] == [c[:2] for c in bisected]
        values = dict(zip(scan.mu_grid, scan.p_values))
        for (lo, hi, root), (_, _, other) in zip(scan.sign_changes, bisected):
            assert lo < root < hi and lo < other < hi
            assert _stopped(factored, root) and _stopped(flat, other)
            slope = abs(values[hi] - values[lo]) / (hi - lo)
            assert abs(root - other) * slope <= 2.5e-10

    def test_refinement_takes_few_levels(self, C, vdp_hopf, monkeypatch):
        # Illinois false position: about 4 p calls for the whole scan where
        # bisection to |p| <= 1e-10 took 28
        calls = []
        family = variance._family

        def counted(*args):
            p0, p = family(*args)
            return p0, lambda mus: calls.append(len(mus)) or p(mus)

        monkeypatch.setattr(variance, "_family", counted)
        grid = np.linspace(0.05, 12.5, 200).tolist()
        scan = scan_mu(C, uniform(TAU, 1.0), grid, vdp_hopf)
        assert calls[0] == 200 and len(scan.sign_changes) == 3
        assert len(calls) - 1 <= 8

    @pytest.mark.parametrize(
        "f, bisection_levels",
        [
            (lambda x: (x - 1.0 / 3.0) ** 3, 4),
            (lambda x: np.sign(x - 1.0 / 3.0) * np.abs(x - 1.0 / 3.0) ** 0.1, 4),
            (lambda x: np.tanh(1e6 * (x - 1.0 / 3.0)), 4),
            (lambda x: np.expm1(100.0 * (x - 1.0 / 3.0)), 1),
        ],
        ids=["triple", "power", "step", "exponential"],
    )
    def test_refinement_ends_on_hard_zeros(self, f, bisection_levels):
        # a triple zero is flat, |x - r|^0.1 is steep at r and flat elsewhere,
        # a tanh step is flat on both sides: each ends inside its bracket
        # within four times the levels of bisection to 1e-14 (48 here). On the
        # exponential, whose p(hi) is 1e85, false position alone creeps from
        # lo for 56 levels; the midpoint safeguard ends it within bisection's
        a, b = 0.1, 2.3
        calls = []

        def p(xs):
            calls.append(len(xs))
            return f(np.asarray(xs, dtype=float))

        (root,) = variance._refine(p, [(a, b, f(a), f(b))])
        assert a < root < b
        assert abs(f(root)) <= 1e-10 or abs(root - 1.0 / 3.0) <= 1e-14
        assert len(calls) <= bisection_levels * math.ceil(math.log2((b - a) / 1e-14))

    def test_memory_of_many_pieces_far_from_lag_0(self):
        # 24 pieces near lag 1000 scanned to the support limit (about 199):
        # 83 subintervals a piece, ~32,000 Gauss nodes; the exponentials and
        # their gather by subinterval are row-blocked like the nodes, and a
        # dense block-diagonal (16 P + 1) x J weight matrix would alone
        # exceed the bound. p vanishes identically, so no bisection runs.
        H = synthetic_hopf(np.eye(2), np.eye(2))
        C0 = np.array([[1.0, 0.0], [0.0, -1.0]])
        h = truncated_gamma(2.0, 0.002, (990.0, 1000.0))
        _, mean, _ = moments(h)
        grid = np.linspace(1.0, mean / (mean - 990.0) * 0.999, 500)
        tracemalloc.start()
        try:
            scan = scan_mu(C0, h, grid, H)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(scan.p_values) == 500
        assert peak < 4e6

    @pytest.mark.parametrize("k", [207, 208, 209])
    def test_bracket_of_adjacent_floats_stops(self, k):
        # near mu = 130 adjacent floats are 2.8e-14 apart, above the 1e-14
        # width rule, and p_mu moves by more than 1e-10 between them: their
        # midpoint rounds to an end, and halving alone would never stop
        H = synthetic_hopf(np.eye(2), np.eye(2))
        C0 = np.array([[0.0, 1e9], [0.0, 0.0]])
        zero = k * math.pi / 5.0  # p_mu is a multiple of sin(5 mu) / mu
        scan = scan_mu(C0, uniform(1300.0, 5.0), [zero - 0.1, zero + 0.1], H)
        ((lo, hi, root),) = scan.sign_changes
        assert lo < root < hi
        assert abs(root - zero) <= 1e-9


class TestLocalDerivatives:
    def test_uniform_closed_form(self, C, vdp_hopf):
        h = uniform(TAU, 1.0)
        p0 = p_mu(C, h, 0.0, vdp_hopf)
        d1, d2 = local_derivatives(C, h, vdp_hopf)
        assert d1 == 0.0
        assert d2 == pytest.approx(-p0 / 3.0, abs=1e-12)

    def test_zero_variance_rejected(self, C, vdp_hopf):
        with pytest.raises(ValueError):
            local_derivatives(C, dirac(TAU), vdp_hopf)

    def test_matches_finite_differences(self, C, vdp_hopf, fast_hopf):
        # at the Hopf frequencies 1 and 2.5 the curvature is
        # -omega^2 sigma^2 p0, as local_derivatives gives it
        h = triangular(TAU, 1.2)
        _, _, var = moments(h)
        for H in (vdp_hopf, fast_hopf):
            p0 = p_mu(C, h, 0.0, H)
            d1, d2 = finite_difference_derivatives(C, h, H, 1e-3)
            assert abs(d1) <= 1e-6
            assert d2 == pytest.approx(-H.omega**2 * var * p0, rel=1e-4)
            assert local_derivatives(C, h, H) == (0.0, pytest.approx(d2, rel=1e-4))

    def test_first_derivative_is_second_order_small(self, C, vdp_hopf):
        # central-difference d1 at mu=0 shrinks like step^2 (local extremum)
        h = uniform(TAU, 1.0)
        d1_coarse, _ = finite_difference_derivatives(C, h, vdp_hopf, 1e-2)
        d1_fine, _ = finite_difference_derivatives(C, h, vdp_hopf, 1e-3)
        assert abs(d1_coarse) <= 1e-4
        assert abs(d1_fine) <= max(1e-2 * abs(d1_coarse), 1e-10)


class TestGlobalBoundCheck:
    def test_uniform_attenuation(self, C, vdp_hopf, fast_hopf):
        # the factor is int cos(omega mu (s - tau_bar)) dh at omega = 1, 2.5
        h = uniform(TAU, 1.0)
        for H in (vdp_hopf, fast_hopf):
            rep = global_bound_check(C, h, np.linspace(0.2, 10.0, 50), H)
            assert rep.bound_holds
            assert rep.max_identity_error <= 1e-10
            for mu, _, att in rep.rows:
                x = H.omega * mu
                assert att == pytest.approx(np.sin(x) / x, abs=1e-12)

    def test_mirrored_atoms_cosine_factor(self, C, vdp_hopf):
        d = 0.8
        h = ScalarDelayDistribution(
            atoms=((TAU - d, 0.5), (TAU + d, 0.5)),
            probability=True,
        )
        rep = global_bound_check(C, h, [0.5, 1.7, 4.2], vdp_hopf)
        for mu, _, att in rep.rows:
            assert att == pytest.approx(np.cos(mu * d), abs=1e-12)

    def test_small_mu_factor_near_one(self, C, vdp_hopf):
        rep = global_bound_check(C, triangular(TAU, 1.0), [1e-4], vdp_hopf)
        assert rep.rows[0][2] == pytest.approx(1.0, abs=1e-7)

    def test_asymmetric_rejected(self, C, vdp_hopf):
        rng = np.random.default_rng(59)
        h = random_distribution(rng, tau_bar=TAU, halfwidth=1.0)
        _, mean, _ = moments(h)
        with pytest.raises(NotSymmetric):
            global_bound_check(C, h, [1.0], vdp_hopf)

    def test_factors_from_one_node_form(self, C, vdp_hopf, monkeypatch):
        h = triangular(TAU, 1.0)
        mus = np.linspace(0.05, 14.0, 200)
        spans = []
        build = ScalarDelayDistribution._node_parts

        def counted(self, max_span):
            spans.append(max_span)
            return build(self, max_span)

        monkeypatch.setattr(ScalarDelayDistribution, "_node_parts", counted)
        rep = global_bound_check(C, h, mus, vdp_hopf)
        monkeypatch.undo()
        # two builds: the frequency-1 one (span 4) for the moments, since
        # constructing h reads no node form, then one at span 4/14 for the
        # factors; no dirac is built
        assert spans == [4.0, 4.0 / 14.0]
        att = np.array([row[2] for row in rep.rows])
        want = attenuation_reference(h, TAU, mus)
        assert np.abs(att - want).max() <= 1e-14
        p_values = np.array([row[1] for row in rep.rows])
        err = np.abs(p_values - rep.p0 * want).max()
        holds = err <= 1e-10 and np.all(np.abs(p_values) <= abs(rep.p0) + 1e-12)
        assert rep.bound_holds == holds

    def test_random_symmetric_references(self, C, vdp_hopf):
        rng = np.random.default_rng(61)
        for _ in range(5):
            h = random_symmetric_distribution(rng)
            _, mean, _ = moments(h)
            rep = global_bound_check(
                C, h, np.linspace(0.25, 10.0, 40), vdp_hopf
            )
            assert rep.bound_holds
            assert rep.max_identity_error <= 1e-10
