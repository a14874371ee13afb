import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial

from _helpers import (
    VDP_G,
    feedback_matrix,
    matrix_pieces,
    normalize_mass,
    polyroots_minimum,
    random_distribution,
    random_matrix_measure,
    random_piece_specs,
    random_symmetric_distribution,
    rotation_fde,
    total_variation_reference,
    truncated_gamma_reference,
)
from hopfdelay.exceptions import DimensionMismatch, SupportViolation
from hopfdelay.fde import normalize_frequency
from hopfdelay.measures import (
    GL_NODES,
    GL_U,
    GL_WEIGHTS,
    MASS_TOL,
    DensityPiece,
    MatrixDelayMeasure,
    ScalarDelayDistribution,
    dirac,
    _affine_pushforward,
    _unit_minimum,
    gauss_rule,
    integrate_matrix,
    is_symmetric,
    moments,
    scale_about_mean,
    scale_family,
    scale_matrix_measure,
    stieltjes_integral,
    subintervals,
    triangular,
    trig_moments,
    truncated_gamma,
    uniform,
)
from hopfdelay.problem import PerturbationSpec


class TestStieltjesIntegral:
    def test_single_atom_cos(self):
        h = dirac(1.0)
        assert stieltjes_integral(h, np.cos) == pytest.approx(np.cos(1.0), abs=1e-15)

    def test_uniform_total_mass(self):
        h = uniform(1.0, 1.0)  # density 1/2 on [0, 2]
        assert stieltjes_integral(h, lambda s: np.ones_like(s)) == pytest.approx(
            1.0, abs=1e-14
        )

    def test_uniform_cos_closed_form(self):
        # density 1/(2 mu) on [tau_bar - mu, tau_bar + mu] integrates cos to
        # (sin mu / mu) cos(tau_bar)
        h = uniform(1.0, 1.0)
        assert stieltjes_integral(h, np.cos) == pytest.approx(
            np.sin(1.0) * np.cos(1.0), abs=1e-13
        )

    def test_polynomial_exactness_degree_seven(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            a, b = sorted(rng.uniform(0.1, 3.0, size=2))
            if b - a < 0.05:
                b = a + 0.5
            dens = rng.normal(size=4)
            fc = rng.normal(size=8)
            h = ScalarDelayDistribution(pieces=(DensityPiece(a, b, tuple(dens)),))
            got = stieltjes_integral(
                h, lambda s: np.polynomial.polynomial.polyval(s, fc)
            )
            anti = (Polynomial(fc) * Polynomial(dens)).integ()
            exact = anti(b) - anti(a)
            assert got == pytest.approx(exact, rel=1e-12, abs=1e-12)

    def test_atoms_plus_density_combined(self):
        h = ScalarDelayDistribution(
            atoms=((0.5, 2.0),),
            pieces=(DensityPiece(1.0, 2.0, (3.0,)),),
        )
        got = stieltjes_integral(h, lambda s: s)
        assert got == pytest.approx(2.0 * 0.5 + 3.0 * (4.0 - 1.0) / 2.0, abs=1e-13)


class TestMoments:
    def test_point_mass(self):
        assert moments(dirac(2.0)) == pytest.approx((1.0, 2.0, 0.0), abs=1e-14)

    def test_uniform_variance(self):
        mass, mean, var = moments(uniform(1.0, 1.0))
        assert (mass, mean) == pytest.approx((1.0, 1.0), abs=1e-14)
        assert var == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_two_atoms(self):
        h = ScalarDelayDistribution(atoms=((0.0, 0.5), (2.0, 0.5)), probability=True)
        assert moments(h) == pytest.approx((1.0, 1.0, 1.0), abs=1e-14)

    def test_triangular_variance(self):
        # symmetric triangular on halfwidth w has variance w^2/6
        _, mean, var = moments(triangular(3.0, 1.5))
        assert mean == pytest.approx(3.0, abs=1e-13)
        assert var == pytest.approx(1.5**2 / 6.0, abs=1e-13)


class TestScaleFamily:
    def test_uniform_half(self):
        h = scale_family(uniform(1.0, 1.0), 0.5)
        mass, mean, var = moments(h)
        assert (mass, mean) == pytest.approx((1.0, 1.0), abs=1e-14)
        assert var == pytest.approx(1.0 / 12.0, abs=1e-13)
        assert h.pieces[0].a == pytest.approx(0.5)
        assert h.pieces[0].b == pytest.approx(1.5)

    def test_identity_scaling(self):
        h = random_distribution(np.random.default_rng(3))
        h1 = scale_family(h, 1.0)
        assert moments(h1) == pytest.approx(moments(h), abs=1e-13)

    def test_point_mass_fixed(self):
        h = scale_family(dirac(2.0), 7.0)
        assert h.atoms == ((2.0, 1.0),)

    @pytest.mark.parametrize("mu", [0.1, 0.5, 2.0, 5.0])
    def test_mass_mean_variance_random(self, mu):
        rng = np.random.default_rng(int(mu * 100))
        for _ in range(5):
            h = random_distribution(rng, tau_bar=20.0, halfwidth=2.0)
            m0, t0, v0 = moments(h)
            m1, t1, v1 = moments(scale_family(h, mu))
            assert m1 == pytest.approx(m0, abs=1e-12)
            assert t1 == pytest.approx(t0, abs=1e-12)
            assert v1 == pytest.approx(mu * mu * v0, abs=1e-10)

    @settings(max_examples=50, deadline=None)
    @given(
        mu=st.floats(min_value=0.05, max_value=5.0),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_moment_identities_hypothesis(self, mu, seed):
        h = random_distribution(
            np.random.default_rng(seed), tau_bar=20.0, halfwidth=2.0
        )
        m0, t0, v0 = moments(h)
        m1, t1, v1 = moments(scale_family(h, mu))
        assert m1 == pytest.approx(m0, abs=1e-12)
        assert t1 == pytest.approx(t0, abs=1e-12)
        assert v1 == pytest.approx(mu * mu * v0, abs=1e-10)

    def test_support_violation(self):
        with pytest.raises(SupportViolation):
            scale_family(uniform(1.0, 1.0), 2.0)  # would reach lag -1

    def test_mu_must_be_positive(self):
        with pytest.raises(ValueError):
            scale_family(uniform(2.0, 1.0), 0.0)


def _quadrature_reference(pc, max_span):
    """Gauss nodes and weights of a piece, the rule built anew per call."""
    n = max(1, int(math.ceil(pc.width / max_span - 1e-12)))
    edges = np.linspace(0.0, 1.0, n + 1)
    half = 0.5 * np.diff(edges)[:, None]
    centre = edges[:-1, None] + half
    u, w = (centre + half * GL_NODES).ravel(), (half * GL_WEIGHTS).ravel()
    return pc.a + pc.width * u, w * np.polynomial.polynomial.polyval(u, pc.q)


class TestGaussRule:
    """Each count's rule is built once per process and read by quadrature
    and subintervals; the floats, signed zeros included, are those of a
    rule built per call."""

    def test_quadrature_matches_rule_built_per_call(self):
        rng = np.random.default_rng(23)
        counts = set()
        for _ in range(400):
            width = 10.0 ** rng.uniform(-6.0, 3.0)
            a = float(rng.choice([0.0, 10.0 ** rng.uniform(-3.0, 3.0)]))
            q = rng.standard_normal(int(rng.integers(1, 5))) * 10.0 ** rng.uniform(-3, 3)
            q[rng.random(q.size) < 0.2] = rng.choice([0.0, -0.0])
            pc = DensityPiece.from_local(a, a + width, q)
            count = int(rng.integers(1, 201))
            max_span = pc.width / (count - 0.5)
            lags, weights = pc.quadrature(max_span)
            assert lags.size == 16 * count
            counts.add(count)
            for got, want in zip((lags, weights), _quadrature_reference(pc, max_span)):
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))
        assert min(counts) == 1 and max(counts) >= 190

    def test_subintervals_read_the_rule(self):
        centre, half = subintervals(7.0, 1.0)
        assert centre is gauss_rule(7)[0] and half is gauss_rule(7)[1]
        assert centre.shape == half.shape == (7, 1)

    def test_rule_is_read_only_and_bounded(self):
        assert gauss_rule.cache_info().maxsize == 64
        for arr in gauss_rule(3):
            with pytest.raises(ValueError):
                arr[0] = 0.0
            with pytest.raises(ValueError):
                arr += 1.0


class TestNarrowPieceConditioning:
    """Pushforwards to narrow pieces far from lag 0 stay exact in mass.

    In lag monomials a piece of width 2*mu at lag tau_bar has coefficients
    of size tau_bar/mu**2 that cancel, enough to put the mass off by more
    than MASS_TOL. The variance is not checked: absolute-lag endpoints limit
    it to about 1e-6 relative at mu = 1e-8.
    """

    @pytest.mark.parametrize(
        "transform", ["family", "reflection", "omega=0.01", "omega=100"]
    )
    @pytest.mark.parametrize("mu", [1e-8, 1e-6, 1e-4, 1e-3])
    @pytest.mark.parametrize("tau_bar", [1.0, 15.0, 1000.0])
    @pytest.mark.parametrize("shape", [triangular, uniform])
    def test_mass_and_mean(self, shape, tau_bar, mu, transform):
        assert MASS_TOL == 1e-12
        h = shape(tau_bar, 1.0)
        if transform == "family":
            g, mean_want = scale_family(h, mu), tau_bar
        elif transform == "reflection":
            g, mean_want = scale_about_mean(h, -mu), tau_bar
        else:
            omega = float(transform.split("=")[1])
            g = _affine_pushforward(scale_family(h, mu), omega, 0.0)
            mean_want = omega * tau_bar
        assert g.probability
        mass, mean, _ = moments(g)
        assert abs(mass - 1.0) <= 1e-14
        assert abs(mean - mean_want) <= 8 * np.spacing(mean_want)


class TestTrigMoments:
    def test_instantaneous(self):
        tm = trig_moments(dirac(0.0))
        assert (tm.alpha, tm.beta) == pytest.approx((1.0, 0.0), abs=1e-15)

    def test_unit_lag_atom(self):
        tm = trig_moments(dirac(1.0))
        assert tm.alpha == pytest.approx(np.cos(1.0), abs=1e-15)
        assert tm.beta == pytest.approx(-np.sin(1.0), abs=1e-15)

    def test_uniform_attenuation(self):
        tau_bar, mu = 2.0, 1.5
        tm = trig_moments(uniform(tau_bar, mu))
        att = np.sin(mu) / mu
        assert tm.alpha == pytest.approx(att * np.cos(tau_bar), abs=1e-13)
        assert tm.beta == pytest.approx(-att * np.sin(tau_bar), abs=1e-13)

    def test_unit_circle_bound(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            h = random_distribution(rng)
            tm = trig_moments(h)
            assert tm.alpha**2 + tm.beta**2 <= 1.0 + 1e-12

    def test_symmetric_ratio_property(self):
        # for symmetric h both trig moments of h_mu are the discrete-delay
        # moments times the same attenuation factor
        rng = np.random.default_rng(17)
        for _ in range(10):
            h = random_symmetric_distribution(rng)
            _, tau_bar, _ = moments(h)
            a0, b0 = np.cos(tau_bar), -np.sin(tau_bar)
            for mu in (0.3, 1.0, 2.5):
                tm = trig_moments(scale_family(h, mu))
                if abs(a0) > 1e-8 and abs(b0) > 1e-8:
                    assert tm.alpha / a0 == pytest.approx(tm.beta / b0, abs=1e-9)


class TestIsSymmetric:
    def test_uniform(self):
        assert is_symmetric(uniform(2.0, 1.0))

    def test_triangular(self):
        assert is_symmetric(triangular(2.0, 1.0))

    def test_unequal_atoms(self):
        h = ScalarDelayDistribution(atoms=((0.0, 1.0 / 3.0), (3.0, 2.0 / 3.0)))
        assert not is_symmetric(h)

    def test_mirrored_pair(self):
        h = ScalarDelayDistribution(atoms=((1.5, 0.5), (2.5, 0.5)), probability=True)
        assert is_symmetric(h)

    def test_skewed_density(self):
        h = normalize_mass([], [DensityPiece(1.0, 2.0, (0.0, 1.0))])
        assert not is_symmetric(h)


class TestConstructors:
    def test_dirac_negative_lag(self):
        with pytest.raises(SupportViolation):
            dirac(-0.5)

    def test_uniform_below_zero(self):
        with pytest.raises(SupportViolation):
            uniform(0.5, 1.0)

    def test_truncated_gamma_mass_and_shape(self):
        h = truncated_gamma(3.0, 2.0, (0.2, 6.0))
        mass, mean, var = moments(h)
        assert mass == pytest.approx(1.0, abs=1e-12)
        # close to the untruncated Gamma(3, 2) moments
        assert mean == pytest.approx(1.5, abs=0.02)
        assert var == pytest.approx(0.75, abs=0.05)
        assert h.probability

    def test_truncated_gamma_density_values(self):
        shape, rate = 2.5, 1.5
        h = truncated_gamma(shape, rate, (0.5, 4.0))
        import math

        norm = rate**shape / math.gamma(shape)

        def pdf(s):
            return norm * s ** (shape - 1.0) * math.exp(-rate * s)

        # truncation renormalizes by a constant, so density ratios match the pdf
        ratio = h.density_at(2.0) / pdf(2.0)
        for s in (0.8, 1.5, 3.2):
            assert h.density_at(s) == pytest.approx(ratio * pdf(s), rel=1e-6)

    def test_truncated_gamma_large_shape(self):
        # Gamma(400, 0.4) far from lag 0: rate**shape / gamma(shape) and
        # s**(shape - 1) overflow, the density relative to its mode does not
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            h = truncated_gamma(400.0, 0.4, (900.0, 1100.0))
        mass, mean, _ = moments(h)
        assert abs(mass - 1.0) <= MASS_TOL
        assert mean == pytest.approx(1000.0, abs=2.0)

    def test_truncated_gamma_exponential_from_lag_0(self):
        # shape 1 from lag 0: the mode sits at lag 0, where log s is -inf
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            h = truncated_gamma(1.0, 2.0, (0.0, 3.0))
        assert h.density_at(1.0) / h.density_at(0.5) == pytest.approx(
            math.exp(-1.0), rel=1e-6
        )

    @pytest.mark.parametrize(
        "coeffs",
        [
            (0.0,), (-0.0,), (2.5,), (1.0, 0.0), (0.0, -0.0), (-0.0, 0.0, 0.0),
            (-1.5, 0.0), (0.0, 1.0), (-0.0, 2.0, -0.0), (3.0, -0.0, 0.0, 0.0),
            (1.0, -2.0, 0.5, -0.25), (-0.0, -0.0, -0.0, 4.0), (0, 1),
        ],
    )
    def test_lag_coefficients_as_numpy_composes_them(self, coeffs):
        # the same floats, signed zeros included, as
        # Polynomial(coeffs)(Polynomial([a, width])) * width, and for a
        # reflection Polynomial(q)(Polynomial([1, -1]))
        def bits(values):
            return [(v, math.copysign(1.0, v)) for v in values]

        rng = np.random.default_rng(len(coeffs))
        for a, b in [(0.0, 1.0), (0.0, 0.3), (2.0, 3.5), *rng.uniform(0, 1e3, (20, 2)).cumsum(1)]:
            piece = DensityPiece(a, b, coeffs)
            want = (Polynomial(coeffs)(Polynomial([a, b - a])) * (b - a)).coef
            assert bits(piece.q) == bits(want)
            reflected = piece.pushforward(-1.0, 2.0 * b).q
            assert bits(reflected) == bits(Polynomial(piece.q)(Polynomial([1.0, -1.0])).coef)

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            ScalarDelayDistribution(atoms=((1.0, -0.5), (2.0, 1.5)), probability=True)
        with pytest.raises(ValueError):
            ScalarDelayDistribution(atoms=((1.0, 0.7),), probability=True)

    @pytest.mark.parametrize(
        "q",
        [
            # density -0.002 at lag 2, the left end, which no Gauss node reads
            (-0.001 / 0.499, 1.0 / 0.499),
            # a dip to -0.006 at u = 1/2, between Gauss nodes 7 and 8
            (-0.006 + 12.072 / 4.0, -12.072, 12.072),
        ],
        ids=["end", "between-nodes"],
    )
    def test_probability_rejects_negative_density_between_nodes(self, q):
        pc = DensityPiece.from_local(2.0, 3.0, q)
        assert np.polynomial.polynomial.polyval(GL_U, q).min() > 0.0
        assert abs(stieltjes_integral(
            ScalarDelayDistribution(pieces=(pc,)), np.ones_like
        ) - 1.0) <= MASS_TOL
        with pytest.raises(ValueError, match="density negative"):
            ScalarDelayDistribution(pieces=(pc,), probability=True)

    def test_density_degree_cap(self):
        with pytest.raises(ValueError):
            DensityPiece(0.0, 1.0, (1.0, 0.0, 0.0, 0.0, 2.0))


# magnitudes within 1e6 of each other: numpy's companion matrix overflows
# on a leading coefficient below about 1e-308 of the next one
LEAD = st.floats(1e-3, 1e3).flatmap(lambda a: st.sampled_from([a, -a]))
COEFF = st.one_of(st.just(0.0), LEAD)


def _with_derivative(q0, c, b, a):
    """q = q0 + c u + (b/2) u^2 + (a/3) u^3, whose q' is c + b u + a u^2."""
    return (q0, c, b / 2.0, a / 3.0)


class TestProbabilityCheck:
    """The check takes each piece's minimum in closed form and its mass
    exactly from the coefficients, with no node form."""

    @staticmethod
    def _matches_polyroots(q):
        scale = max((abs(c) for c in q), default=0.0)
        assert abs(_unit_minimum(q) - polyroots_minimum(q)) <= 1e-15 * scale

    @settings(max_examples=300, deadline=None)
    @given(st.lists(COEFF, min_size=4, max_size=4))
    def test_minimum_of_a_cubic(self, q):
        self._matches_polyroots(tuple(q))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(COEFF, min_size=3, max_size=3), st.booleans())
    def test_minimum_without_cubic_term(self, q, padded):
        # c3 = 0: q' is linear, one critical point
        self._matches_polyroots(tuple(q) + ((0.0,) if padded else ()))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(COEFF, min_size=1, max_size=2), st.integers(0, 2))
    def test_minimum_of_a_line(self, q, zeros):
        # c2 = c3 = 0: no critical point, the minimum is at an end
        self._matches_polyroots(tuple(q) + (0.0,) * zeros)

    @settings(max_examples=200, deadline=None)
    @given(COEFF, LEAD, st.floats(-1.0, 2.0), st.floats(1e-6, 2.0))
    def test_minimum_with_complex_critical_points(self, q0, a, re, im):
        # q' = a ((u - re)^2 + im^2) has no real root; -b/(2a) is read
        c, b = a * (re * re + im * im), -2.0 * a * re
        assume(b * b - 4.0 * a * c < 0.0)
        self._matches_polyroots(_with_derivative(q0, c, b, a))

    @settings(max_examples=200, deadline=None)
    @given(
        COEFF, LEAD, st.floats(0.0, 1.0),
        st.one_of(st.just(0.0), st.floats(1e-12, 1e-5)),
    )
    def test_minimum_at_a_near_double_critical_point(self, q0, a, r, d):
        # q' = a (u - r)(u - r - d): two critical points d apart, or one double
        q = _with_derivative(q0, a * r * (r + d), -a * (2.0 * r + d), a)
        self._matches_polyroots(q)

    @pytest.mark.parametrize("excess, accepted", [
        (2e-12, False), (-2e-12, False), (5e-13, True), (-5e-13, True),
    ])
    @pytest.mark.parametrize("kind", ["atoms", "pieces", "mix"])
    def test_mass_bound(self, kind, excess, accepted):
        # each measure has total mass 1 + excess
        atoms, pieces = {
            "atoms": (((0.5, 0.25), (1.5, 0.75 + excess)), ()),
            "pieces": ((), (
                DensityPiece.from_local(0.0, 1.0, (0.5,)),
                DensityPiece.from_local(1.0, 2.0, (0.0, 1.0 + 2.0 * excess)),
            )),
            "mix": (((0.3, 0.5),), (
                DensityPiece.from_local(1.0, 2.0, (0.25, 0.5 + 2.0 * excess)),
            )),
        }[kind]

        def build():
            return ScalarDelayDistribution(atoms=atoms, pieces=pieces, probability=True)

        if accepted:
            assert abs(moments(build())[0] - 1.0) <= MASS_TOL
        else:
            with pytest.raises(ValueError, match="total mass"):
                build()

    @pytest.mark.parametrize("atoms, q", [
        (((1.0, math.nan),), ()),
        ((), (math.nan,)),
        ((), (1.0, 0.0, 0.0, math.inf)),
        (((1.0, 1e308), (2.0, 1e308)), ()),  # a sum beyond the float range
    ])
    def test_non_finite_mass_refused(self, atoms, q):
        pieces = (DensityPiece.from_local(1.0, 2.0, q),) if q else ()
        with pytest.raises(ValueError):
            ScalarDelayDistribution(atoms=atoms, pieces=pieces, probability=True)

    def test_construction_and_pushforward_build_no_node_form(self, monkeypatch):
        spans = []
        build = ScalarDelayDistribution._node_parts

        def counted(self, max_span):
            spans.append(max_span)
            return build(self, max_span)

        monkeypatch.setattr(ScalarDelayDistribution, "_node_parts", counted)
        hs = [
            uniform(3.0, 1.0),
            triangular(3.0, 1.0),
            truncated_gamma(6.0, 1.0, (0.0, 20.0)),
            ScalarDelayDistribution(
                atoms=((1.0, 0.25),),
                pieces=(DensityPiece(2.0, 3.0, (-3.0, 1.5)),),
                probability=True,
            ),
        ]
        assert spans == []
        for h in hs:
            pert = PerturbationSpec(
                g_lin=VDP_G, kappa=1.0, epsilon=0.1,
                structure_matrix=feedback_matrix(1.0), distribution=h,
            )
            normalize_frequency(rotation_fde(), pert, 2.0)
            scale_family(h, 0.5)
            scale_family(h, 0.9)
        # only the mean that scale_family reads: h's frequency-1 node form,
        # built once per h; the checks of the pushed-forward h build none
        assert spans == [4.0] * len(hs)

    @pytest.mark.parametrize("shape, rate, support", [
        (6.0, 1.0, (0.0, 20.0)),
        (3.0, 2.0, (0.2, 6.0)),
        (2.5, 1.5, (0.5, 4.0)),
        (1.0, 2.0, (0.0, 3.0)),
        (400.0, 0.4, (900.0, 1100.0)),
    ])
    def test_truncated_gamma_normalized_by_exact_mass(self, shape, rate, support):
        h = truncated_gamma(shape, rate, support)
        assert abs(stieltjes_integral(h, np.ones_like) - 1.0) <= 1e-15

    @pytest.mark.parametrize("shape, rate, support", [
        (6.0, 1.0, (0.0, 20.0)),
        (3.0, 2.0, (0.2, 6.0)),
        (2.5, 1.5, (0.5, 4.0)),
        (1.0, 2.0, (0.0, 3.0)),
        (400.0, 0.4, (900.0, 1100.0)),
    ])
    def test_truncated_gamma_matches_per_piece_fit(self, shape, rate, support):
        # one solve with a right-hand side per piece and one pdf call, against
        # a solve and a pdf call per piece
        pieces = truncated_gamma(shape, rate, support).pieces
        want = truncated_gamma_reference(shape, rate, support)
        assert len(pieces) == len(want)
        for pc, (a, b, q) in zip(pieces, want):
            assert (pc.a, pc.b) == (a, b)
            assert np.abs(np.subtract(pc.q, q)).max() <= 1e-15 * np.abs(q).max()


class TestMatrixMeasures:
    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            MatrixDelayMeasure(dim=2, atoms=((0.0, [[1.0]]),))

    def test_tau_max_is_the_largest_lag(self):
        A = np.eye(2)
        piece = DensityPiece(0.5, 2.5, (1.0,))
        assert MatrixDelayMeasure(dim=2).tau_max == 0.0
        assert ScalarDelayDistribution().tau_max == 0.0
        m = MatrixDelayMeasure(dim=2, atoms=((3.0, A), (1.0, A)), pieces=((A, piece),))
        assert m.tau_max == 3.0
        assert ScalarDelayDistribution(atoms=((1.0, 0.5),), pieces=(piece,)).tau_max == 2.5
        with pytest.raises(AttributeError):
            m.tau_max = 4.0

    @pytest.mark.parametrize("lag", [-0.5, math.nan])
    def test_negative_or_nan_lag_refused(self, lag):
        A = np.eye(2)
        with pytest.raises(SupportViolation):
            MatrixDelayMeasure(dim=2, atoms=((lag, A),))
        with pytest.raises(SupportViolation):
            ScalarDelayDistribution(atoms=((lag, 1.0),))
        for a, b in ((lag, 1.0), (0.0, math.nan)):
            piece = DensityPiece.from_local(a, b, (1.0,))
            with pytest.raises(SupportViolation):
                MatrixDelayMeasure(dim=2, pieces=((A, piece),))
            with pytest.raises(SupportViolation):
                ScalarDelayDistribution(pieces=(piece,))

    def test_integrate_matrix_atoms(self):
        A = np.array([[1.0, 2.0], [3.0, 4.0]])
        m = MatrixDelayMeasure(dim=2, atoms=((0.5, A), (1.0, -A)))
        total = integrate_matrix(m, lambda s: s)
        np.testing.assert_allclose(total, 0.5 * A - A, atol=1e-14)

    def test_integrate_matrix_density(self):
        specs = random_piece_specs(np.random.default_rng(5), n_pieces=2)
        m = MatrixDelayMeasure(dim=2, pieces=matrix_pieces(specs))
        got = integrate_matrix(m, np.ones_like)
        want = np.zeros((2, 2))
        for a, b, matrix, coeffs in specs:
            anti = Polynomial(coeffs).integ()
            want = want + matrix * (anti(b) - anti(a))
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_scale_matrix_measure(self):
        rng = np.random.default_rng(9)
        m = random_matrix_measure(rng)
        omega = 2.5
        m2 = scale_matrix_measure(m, omega)
        assert m2.tau_max == pytest.approx(m.tau_max * omega)
        # total measure mass divides by omega
        tot = integrate_matrix(m, np.ones_like)
        tot2 = integrate_matrix(m2, np.ones_like)
        np.testing.assert_allclose(tot2, tot / omega, atol=1e-12)
        # and first moments are invariant: int s' dM' = int (omega s) dM/omega
        m1 = integrate_matrix(m, lambda s: s)
        m1b = integrate_matrix(m2, lambda s: s)
        np.testing.assert_allclose(m1b, m1, atol=1e-12)
        # int s'^k dM' = omega^(k-1) int s^k dM, against the antiderivative
        # of each piece's lag polynomial as it was constructed
        specs = random_piece_specs(rng, n_pieces=3)
        m = MatrixDelayMeasure(dim=2, pieces=matrix_pieces(specs))
        for omega in (0.01, 2.5, 100.0):
            m2 = scale_matrix_measure(m, omega)
            for k in (0, 1, 2):
                want = np.zeros((2, 2))
                for a, b, matrix, coeffs in specs:
                    anti = (Polynomial([0.0] * k + [1.0]) * Polynomial(coeffs)).integ()
                    want = want + matrix * (anti(b) - anti(a))
                got = integrate_matrix(m2, lambda s: s**k)
                scale = omega ** (k - 1)
                np.testing.assert_allclose(
                    got, scale * want, rtol=1e-13, atol=1e-13 * scale
                )

    def test_total_variation(self):
        A = np.eye(2)
        m = MatrixDelayMeasure(dim=2, atoms=((0.0, A), (1.0, 2.0 * A)))
        assert m.total_variation() == pytest.approx(3.0 * np.linalg.norm(A))
        # a sign-changing piece counts int |q| = 1/2, not |int q| = 0
        m = MatrixDelayMeasure(
            dim=2,
            pieces=((A, DensityPiece.from_local(0.5, 1.5, (1.0, -2.0))),),
        )
        assert m.total_variation() == pytest.approx(0.5 * np.sqrt(2.0), rel=1e-14)

    def test_total_variation_near_float_limit(self):
        # the Frobenius norms square no entry: no overflow warning, and a
        # sum past the largest double is inf
        A = np.array([[-1e300, 0.0], [1e300, 0.0]])
        piece = DensityPiece.from_local(0.0, 1.0, (2.0,))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = MatrixDelayMeasure(dim=2, atoms=((1.0, A),))
            assert m.total_variation() == pytest.approx(math.sqrt(2.0) * 1e300)
            m = MatrixDelayMeasure(dim=2, pieces=((A, piece),))
            assert m.total_variation() == pytest.approx(2.0 * math.sqrt(2.0) * 1e300)
            big = np.full((2, 2), 1.5e308)
            m = MatrixDelayMeasure(dim=2, atoms=((1.0, big), (2.0, big)))
            assert m.total_variation() == math.inf

    def test_total_variation_matches_polynomial_objects(self):
        A = np.array([[1.0, -2.0], [0.5, 3.0]])
        cases = [
            MatrixDelayMeasure(dim=2, atoms=((0.0, A), (1.0, 2.0 * A))),
            MatrixDelayMeasure(
                dim=2,
                pieces=((A, DensityPiece.from_local(0.5, 1.5, (1.0, -2.0))),),
            ),
            # q changes sign twice in (0, 1), at 0.2 and 0.7, and has a
            # complex pair of roots in the second piece
            MatrixDelayMeasure(
                dim=2,
                atoms=((0.3, A),),
                pieces=(
                    (A, DensityPiece.from_local(0.0, 2.0, (0.14, -0.9, 1.0))),
                    (-A, DensityPiece.from_local(1.0, 3.0, (1.0, -0.5, 0.0, 0.8))),
                ),
            ),
        ]
        for m in cases:
            want = total_variation_reference(m)
            assert abs(m.total_variation() - want) <= 1e-15 * want

    def test_node_form_kept_for_equal_subinterval_counts(self):
        # widths 1 and 0.3: spans 0.5 and 0.55 both cut them into 2 and 1
        A = np.array([[1.0, 2.0], [0.0, -1.0]])
        pieces = (
            (A, DensityPiece(0.0, 1.0, (1.0, 0.5))),
            (2.0 * A, DensityPiece(1.2, 1.5, (0.3,))),
        )
        m = MatrixDelayMeasure(dim=2, atoms=((0.7, A),), pieces=pieces)
        h = ScalarDelayDistribution(pieces=tuple(pc for _, pc in pieces))
        for measure in (m, h):
            first = measure.nodes(0.5)
            assert all(a is b for a, b in zip(first, measure.nodes(0.55)))
            fresh = type(measure)(**{
                f: getattr(measure, f) for f in measure.__dataclass_fields__
            })
            for span in (0.55, 0.3):
                for a, b in zip(measure.nodes(span), fresh.nodes(span)):
                    assert np.array_equal(a, b)
            assert measure.nodes(0.3)[0].size > first[0].size
