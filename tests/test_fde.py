import pathlib
import tracemalloc

import numpy as np
import pytest

from _helpers import (
    bilinear_pairing,
    char_matrix_derivative,
    feedback_matrix,
    feedback_measure,
    integrate_matrix_reference,
    integrate_rotated,
    pairing_reference,
    random_distribution,
    random_matrix_measure,
    regauge,
    rot,
    rotation_fde,
    scalar_lag_fde,
    unbounded_hopf_pair,
    vdp_problem,
    winding_reference,
    zero_measure,
)
from hopfdelay import cli, fde, measures, pipeline
from hopfdelay.averaging import compute_q, p_from_structure
from hopfdelay.exceptions import (
    ContourFailure,
    DegenerateEigenspace,
    HopfNotFound,
    MultiplePairs,
)
from hopfdelay.fde import (
    I2,
    J,
    certify_spectrum,
    char_matrix,
    eigenbasis,
    find_hopf_pair,
    normalize_frequency,
)
from hopfdelay.measures import (
    DensityPiece,
    MatrixDelayMeasure,
    ScalarDelayDistribution,
    dirac,
    integrate_matrix,
    truncated_gamma,
    uniform,
)
from hopfdelay.problem import PerturbationSpec, load_problem

PROBLEMS = pathlib.Path(__file__).resolve().parents[1] / "problems"


def _no_delay_fde(A):
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    return MatrixDelayMeasure(dim=n, atoms=((0.0, A),))


KINDS = ["atom", "lag", "kernel"]
# the kinds with a delay, whose roots the grid, Newton and winding find; an
# undelayed (atom) L reads them off the eigenvalues of A
DELAYED_KINDS = ["lag", "kernel"]


def _random_hopf_fde(rng, kind):
    """A random real problem of one kind, most with a root pair placed on
    the axis at a random omega, some with two pairs or none.

    atom: x' = A x, A similar to blockdiag(omega J, rest), rest stable, a
    second rotation or random. lag: x' = -omega P x(t - tau) with omega tau
    = pi/2 plus a stable instant part. kernel: the same delayed term spread
    uniformly over [tau - w, tau + w] with its weight raised to keep the
    root, or a random measure with density pieces.
    """
    omega = rng.uniform(0.3, 4.0)
    if kind == "atom":
        n = int(rng.integers(2, 5))
        B = np.zeros((n, n))
        B[:2, :2] = omega * J
        rest = rng.choice(("stable", "rotation", "random")) if n > 2 else "none"
        if rest == "rotation" and n == 4:
            B[2:, 2:] = rng.uniform(0.3, 4.0) * J
        elif rest != "none":
            B[2:, 2:] = np.diag(-rng.uniform(0.2, 2.0, size=n - 2))
            if rest == "random":
                B[2:, 2:] = rng.normal(size=(n - 2, n - 2))
        S = np.eye(n) + 0.3 * rng.normal(size=(n, n))
        A = S @ B @ np.linalg.inv(S)
        return MatrixDelayMeasure(dim=n, atoms=((0.0, A),))
    n = int(rng.integers(1, 4))
    S = np.eye(n) + 0.3 * rng.normal(size=(n, n))
    Si = np.linalg.inv(S)
    P = np.outer(S[:, 0], Si[0])
    instant = S @ np.diag([0.0] + list(-rng.uniform(0.2, 2.0, size=n - 1))) @ Si
    tau = np.pi / (2.0 * omega)
    if kind == "lag":
        atoms = ((0.0, instant), (tau, -omega * P))
        return MatrixDelayMeasure(dim=n, atoms=atoms)
    if rng.uniform() < 0.3:
        tau_max = rng.uniform(0.5, 3.0)
        return random_matrix_measure(
            rng, dim=n, n_atoms=int(rng.integers(0, 3)),
            n_pieces=int(rng.integers(1, 4)), tau_max=tau_max,
        )
    w = rng.uniform(0.05, 0.9) * tau
    a = omega * omega * w / np.sin(omega * w)
    piece = DensityPiece.from_local(tau - w, tau + w, (1.0,))
    return MatrixDelayMeasure(dim=n, atoms=((0.0, instant),), pieces=((-a * P, piece),))


def _outcome(f, *args, **kwargs):
    """f's value, or the type and arguments of the exception it raised."""
    try:
        return f(*args, **kwargs)
    except (HopfNotFound, MultiplePairs, ContourFailure, fde._RootOnContour) as exc:
        return type(exc), exc.args


class TestRot:
    def test_group_property(self):
        np.testing.assert_allclose(
            rot(0.7) @ rot(-1.9), rot(-1.2), atol=1e-14
        )

    def test_quarter_turn_is_J(self):
        np.testing.assert_allclose(rot(np.pi / 2), J, atol=1e-15)


class TestCharMatrix:
    def test_scalar_lag_root(self):
        L = scalar_lag_fde()
        val = char_matrix(L, 1j * np.pi / 2)
        assert abs(val[0, 0]) <= 1e-12

    def test_no_delay(self):
        A = np.array([[1.0, 2.0], [3.0, 4.0]])
        L = _no_delay_fde(A)
        lam = 0.3 - 1.7j
        np.testing.assert_allclose(
            char_matrix(L, lam), lam * np.eye(2) - A, atol=1e-14
        )

    def test_vdp_root_at_i(self):
        L = rotation_fde()
        assert abs(np.linalg.det(char_matrix(L, 1j))) <= 1e-12

    def test_derivative_no_delay(self):
        L = _no_delay_fde(np.diag([1.0, 2.0]))
        np.testing.assert_allclose(
            char_matrix_derivative(L, 1j), np.eye(2), atol=1e-14
        )

    def test_derivative_finite_difference(self):
        L = scalar_lag_fde()
        lam = 0.1 + 1.2j
        h = 1e-6
        fd = (char_matrix(L, lam + h) - char_matrix(L, lam - h)) / (2 * h)
        np.testing.assert_allclose(
            char_matrix_derivative(L, lam), fd, atol=1e-8
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_batch_matches_per_node_reference(self, seed):
        # one batched product against the per-node loop (each lambda on its
        # own span) and against scalar calls, for |lambda| up to 50
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        L = random_matrix_measure(
            rng, dim=n, n_atoms=int(rng.integers(0, 3)),
            n_pieces=int(rng.integers(1, 4)), tau_max=2.0,
        )
        radius = rng.uniform(0.0, 50.0, size=40)
        lams = radius * np.exp(1j * rng.uniform(-np.pi / 2, np.pi / 2, size=40))
        lams[:2] = (0.0, 50j)
        batch = char_matrix(L, lams)
        batch_d = char_matrix_derivative(L, lams)
        assert batch.shape == batch_d.shape == (40, n, n)
        zero = np.zeros((n, n), dtype=complex)
        # the size of the summed terms: |exp(-lambda s)| <= 1 for Re lambda >= 0
        lags, weights, mats = L.nodes(1.0)
        size = np.sum(
            np.abs(weights) * np.maximum(1.0, lags) * np.abs(mats).max(axis=(1, 2))
        )
        for lam, got, got_d in zip(lams, batch, batch_d):
            span = 1.0 / max(1.0, abs(lam))
            ref = lam * np.eye(n) - integrate_matrix_reference(
                L, lambda s, A: np.exp(-lam * s) * A, zero, span
            )
            ref_d = np.eye(n) + integrate_matrix_reference(
                L, lambda s, A: s * np.exp(-lam * s) * A, zero, span
            )
            scale = abs(lam) + size
            single, single_d = char_matrix(L, lam), char_matrix_derivative(L, lam)
            pairs = ((ref, got), (ref, single), (ref_d, got_d), (ref_d, single_d))
            for want, value in pairs:
                assert np.abs(value - want).max() <= 1e-13 * scale

    def test_subintervals_turn_at_most_four_radians(self, monkeypatch):
        # a 2-wide kernel at max |lambda| = 10 reads 16 ceil(2 * 10 / 4) = 80
        # nodes: 4 rad of phase per subinterval
        L = MatrixDelayMeasure(
            dim=1, pieces=(([[0.3]], DensityPiece(1.0, 3.0, (0.5,))),)
        )
        sizes = []
        nodes = MatrixDelayMeasure.nodes

        def counted(self, max_span):
            out = nodes(self, max_span)
            sizes.append(out[0].size)
            return out

        monkeypatch.setattr(MatrixDelayMeasure, "nodes", counted)
        char_matrix(L, [1j, -6.0 + 8.0j])
        assert sizes == [80]


class TestFindHopfPair:
    def test_rotation(self):
        assert find_hopf_pair(rotation_fde()) == pytest.approx(1.0, abs=1e-10)

    def test_scalar_lag(self):
        assert find_hopf_pair(scalar_lag_fde()) == pytest.approx(
            np.pi / 2, abs=1e-8
        )

    def test_stable_scalar(self):
        with pytest.raises(HopfNotFound):
            find_hopf_pair(_no_delay_fde([[-1.0]]))

    def test_multiple_pairs(self):
        A = np.zeros((4, 4))
        A[:2, :2] = -J
        A[2:, 2:] = -2.0 * J
        with pytest.raises(MultiplePairs):
            find_hopf_pair(_no_delay_fde(A))

    def test_memory_is_blocked(self):
        # x' = -a int x(t - s) dh(s) with a wide truncated gamma h: the grid
        # of 1,000 lambdas times ~4,700 nodes would be ~75 MB as one complex
        # matrix; row blocks keep the peak to a few node-length arrays. a
        # puts a root at i*omega with omega = 0.4756723127194...
        h = truncated_gamma(2.0, 0.5, (0.5, 30.0))
        a = 0.890219860609218
        L = MatrixDelayMeasure(dim=1, pieces=tuple(([[-a]], pc) for pc in h.pieces))
        tracemalloc.start()
        try:
            omega = find_hopf_pair(L)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert omega == pytest.approx(0.47567231271941535, abs=1e-9)
        assert peak < 8e6

    @pytest.mark.parametrize("omega", [14.0, 50.0])
    def test_delayed_pair_above_ten(self, omega, monkeypatch):
        # x' = -omega x(t - tau), omega tau = pi/2: Var(eta) = omega. The
        # grid itself must reach the root: Newton from a grid that stops
        # short may still land on it
        L = scalar_lag_fde(-omega, np.pi / (2.0 * omega))
        calls = []

        def recorded(L, lam, det=fde._det):
            calls.append(np.asarray(lam))
            return det(L, lam)

        monkeypatch.setattr(fde, "_det", recorded)
        assert find_hopf_pair(L) == pytest.approx(omega, rel=1e-12)
        assert np.min(np.abs(calls[0].imag - omega)) <= 0.005
        monkeypatch.undo()
        assert find_hopf_pair(L) == unbounded_hopf_pair(L, omega + 1.0)

    def test_grid_past_max_points_refused(self):
        L = scalar_lag_fde(-1e300, 1.0)
        with pytest.raises(HopfNotFound, match=r"Var\(eta\) = 1e\+300 "):
            find_hopf_pair(L)

    @pytest.mark.parametrize("kind", DELAYED_KINDS)
    def test_bounded_scan_matches_unbounded(self, kind):
        # the grid stops at Var(eta) + 2 grid_step: omega, HopfNotFound and
        # MultiplePairs all come out as from a grid that runs past Var(eta)
        rng = np.random.default_rng(KINDS.index(kind))
        outcomes = []
        for _ in range(25):
            L = _random_hopf_fde(rng, kind)
            got = _outcome(find_hopf_pair, L)
            bound = L.total_variation() + 1.0
            assert got == _outcome(unbounded_hopf_pair, L, bound)
            outcomes.append(type(got) is float)
        assert any(outcomes)

    @pytest.mark.parametrize("kind", DELAYED_KINDS)
    def test_grid_stops_at_total_variation(self, kind, monkeypatch):
        rng = np.random.default_rng(10 + KINDS.index(kind))
        for _ in range(10):
            L = _random_hopf_fde(rng, kind)
            calls = []

            def recorded(L, lam, det=fde._det):
                calls.append(np.asarray(lam))
                return det(L, lam)

            monkeypatch.setattr(fde, "_det", recorded)
            _outcome(find_hopf_pair, L)
            monkeypatch.undo()
            grid = calls[0]
            var = L.total_variation()
            assert np.all(grid.real == 0.0)
            # the grid covers every axis root, |omega| <= Var(eta)
            assert var <= grid.imag.max() <= var + 2.0 * 0.01
            assert np.array_equal(grid.imag, np.arange(0.01, var + 2.0 * 0.01, 0.01))

    def test_undelayed_matches_grid_reference(self):
        # the eigenvalues of A give the grid's outcome, omega to 1e-12; A
        # shifted by -I/2 has no axis root
        rng = np.random.default_rng(KINDS.index("atom"))
        outcomes = []
        for _ in range(25):
            A = _random_hopf_fde(rng, "atom").atoms[0][1]
            for L in (_no_delay_fde(A), _no_delay_fde(A - 0.5 * np.eye(len(A)))):
                got = _outcome(find_hopf_pair, L)
                want = _outcome(unbounded_hopf_pair, L, L.total_variation() + 1.0)
                if type(want) is float:
                    assert type(got) is float
                    assert got == pytest.approx(want, rel=1e-12, abs=0.0)
                else:
                    assert type(got) is tuple and got[0] is want[0]
                outcomes.append(float if type(got) is float else got[0])
        assert set(outcomes) == {float, HopfNotFound, MultiplePairs}

    def test_undelayed_analyze_evaluates_no_det(self, monkeypatch):
        calls = []

        def recorded(L, lam, det=fde._det):
            calls.append(np.asarray(lam).size)
            return det(L, lam)

        monkeypatch.setattr(fde, "_det", recorded)
        result = pipeline.analyze(vdp_problem(5.0))
        assert result.certificate.hopf_pair_found
        assert calls == []
        # a delayed L still takes the grid, Newton and winding path
        L = scalar_lag_fde()
        fde.certify_spectrum(L, 0.05, 1.0, -3.0, 3.0, fde.find_hopf_pair(L))
        assert calls


def _winding_certificate(L, delta, re_hi, im_lo, im_hi):
    """certify_spectrum's count and pair as the winding path gives them."""
    count = winding_reference(L, -delta, re_hi, im_lo, im_hi)
    try:
        omega = unbounded_hopf_pair(L, L.total_variation() + 1.0)
    except HopfNotFound:
        return count, False
    b = 1e-6
    box = (-b, b, omega - b, omega + b)
    return count, count == 2 and omega < im_hi and fde._winding_number(L, *box, n0=16) == 1


def _located(L):
    """find_hopf_pair(L), or 0 when L has no axis pair."""
    try:
        return find_hopf_pair(L)
    except HopfNotFound:
        return 0.0


class TestCertifySpectrum:
    def test_rotation_pair(self):
        L = rotation_fde()
        cert = certify_spectrum(L, 0.5, 1.0, -2.0, 2.0, find_hopf_pair(L))
        assert cert.root_count == 2
        assert cert.hopf_pair_found

    def test_stable_scalar_empty(self):
        cert = certify_spectrum(_no_delay_fde([[-1.0]]), 0.5, 1.0, -2.0, 2.0, 0.0)
        assert cert.root_count == 0
        assert not cert.hopf_pair_found

    def test_real_unstable_root(self):
        cert = certify_spectrum(_no_delay_fde([[1.0]]), 0.5, 2.0, -2.0, 2.0, 0.0)
        assert cert.root_count == 1
        assert not cert.hopf_pair_found

    def test_scalar_lag_standing_assumption(self):
        L = scalar_lag_fde()
        cert = certify_spectrum(L, 0.05, 1.0, -3.0, 3.0, find_hopf_pair(L))
        assert cert.root_count == 2
        assert cert.hopf_pair_found

    def test_shipped_examples_delta(self):
        for L in (rotation_fde(), scalar_lag_fde()):
            cert = certify_spectrum(L, 0.05, 1.0, -5.0, 5.0, find_hopf_pair(L))
            assert cert.root_count == 2
            assert cert.hopf_pair_found

    def test_given_omega_matches_search(self):
        L = scalar_lag_fde()
        omega = find_hopf_pair(L)
        assert certify_spectrum(L, 0.05, 1.0, -3.0, 3.0, omega=omega).hopf_pair_found
        # a frequency with no root on it is not certified
        cert = certify_spectrum(L, 0.05, 1.0, -3.0, 3.0, omega=omega + 0.01)
        assert cert.root_count == 2
        assert not cert.hopf_pair_found

    def test_analyze_searches_once(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return find_hopf_pair(*args, **kwargs)

        monkeypatch.setattr(fde, "find_hopf_pair", counted)
        monkeypatch.setattr(pipeline, "find_hopf_pair", counted)
        result = pipeline.analyze(vdp_problem(5.0))
        assert len(calls) == 1
        assert result.certificate.hopf_pair_found

    def test_undelayed_roots_are_computed_once_per_measure(self, monkeypatch):
        # the Hopf search and the certificate share L.ode_roots
        calls = []
        eigvals = np.linalg.eigvals

        def counted(A):
            calls.append(A)
            return eigvals(A)

        monkeypatch.setattr(np.linalg, "eigvals", counted)
        problem = vdp_problem(5.0)
        assert pipeline.analyze(problem).certificate.hopf_pair_found
        assert len(calls) == 1
        pipeline.analyze(problem)
        assert len(calls) == 1
        # a fresh measure computes its own
        pipeline.analyze(vdp_problem(5.0))
        assert len(calls) == 2


    @pytest.mark.parametrize("kind", KINDS)
    def test_winding_matches_even_spacing(self, kind):
        # n0 points on the longest side and that spacing on the others count
        # the roots as n0 points on every side do
        rng = np.random.default_rng(20 + KINDS.index(kind))
        for _ in range(10):
            L = _random_hopf_fde(rng, kind)
            im = rng.uniform(1.0, 12.0)
            box = (-rng.uniform(0.01, 0.5), rng.uniform(0.1, 1.5), -im, im)
            want = _outcome(winding_reference, L, *box)
            assert _outcome(fde._winding_number, L, *box) == want

    def test_undelayed_matches_winding(self):
        # the eigenvalues in the box count as the winding number does; the
        # pair also needs no root with Re >= -delta outside the box, and a
        # second axis pair raises MultiplePairs
        rng = np.random.default_rng(50)
        seen = set()
        for _ in range(40):
            L = _random_hopf_fde(rng, "atom")
            im = rng.uniform(1.0, 12.0)
            box = (rng.uniform(0.01, 0.5), rng.uniform(0.1, 1.5), -im, im)
            want = _outcome(_winding_certificate, L, *box)
            if want[0] is MultiplePairs:
                assert _outcome(find_hopf_pair, L)[0] is MultiplePairs
                seen.add(MultiplePairs)
                continue
            count, hopf = want
            roots = np.linalg.eigvals(L.atoms[0][1])
            visible = int(np.count_nonzero(roots.real >= -box[0]))
            cert = certify_spectrum(L, *box, _located(L))
            assert cert.root_count == count
            assert cert.hopf_pair_found is (hopf and visible == count)
            seen.add((hopf, visible == count))
        assert seen == {
            (True, True), (True, False), (False, True), (False, False), MultiplePairs
        }

    @pytest.mark.parametrize("offset", [1e-3, -1e-3, 3e-4])
    def test_root_near_a_short_side(self, offset):
        # roots sigma +- i omega sit offset from the top and bottom sides of
        # a tall box, whose short sides get 7 points instead of 64
        sigma, omega = 0.3, 4.0
        L = _no_delay_fde([[sigma, -omega], [omega, sigma]])
        box = (-0.05, 1.0, -omega - offset, omega + offset)
        count = fde._winding_number(L, *box)
        assert count == winding_reference(L, *box) == (2 if offset > 0 else 0)

    @pytest.mark.parametrize("kind", KINDS)
    def test_mirror_box_winds_alike(self, kind):
        rng = np.random.default_rng(30 + KINDS.index(kind))
        found = 0
        for _ in range(15):
            L = _random_hopf_fde(rng, kind)
            omega = _outcome(find_hopf_pair, L)
            if type(omega) is not float:
                continue
            found += 1
            b = 1e-6
            upper = _outcome(fde._winding_number, L, -b, b, omega - b, omega + b, n0=16)
            lower = _outcome(fde._winding_number, L, -b, b, -omega - b, -omega + b, n0=16)
            assert upper == lower == 1
        assert found


class TestNormalizeFrequency:
    def test_identity(self):
        L = rotation_fde()
        L2, _ = normalize_frequency(L, None, 1.0)
        assert L2.atoms[0][0] == 0.0
        np.testing.assert_allclose(L2.atoms[0][1], -J, atol=1e-15)

    def test_scalar_lag(self):
        L = scalar_lag_fde()
        L2, _ = normalize_frequency(L, None, np.pi / 2)
        (lag, mat), = L2.atoms
        assert lag == pytest.approx(np.pi / 2, abs=1e-14)
        assert mat[0, 0] == pytest.approx(-1.0, abs=1e-14)
        assert find_hopf_pair(L2) == pytest.approx(1.0, abs=1e-10)

    def test_lag_set_scaling(self):
        L = MatrixDelayMeasure(dim=1, atoms=((1.0, [[-0.2]]), (2.0, [[-0.3]])))
        L2, _ = normalize_frequency(L, None, 3.0)
        assert [s for s, _ in L2.atoms] == pytest.approx([3.0, 6.0])

    def test_perturbation_rescaling(self):
        problem = vdp_problem(5.0, distribution=uniform(1.0, 0.5))
        _, pert2 = normalize_frequency(problem.linear, problem.pert, 2.0)
        np.testing.assert_allclose(
            pert2.structure_matrix, feedback_matrix(5.0) / 2.0, atol=1e-14
        )
        from hopfdelay.measures import moments

        mass, mean, _ = moments(pert2.distribution)
        assert mass == pytest.approx(1.0, abs=1e-12)
        assert mean == pytest.approx(2.0, abs=1e-12)


class TestEigenbasis:
    def test_rotation_invariants(self, vdp_hopf):
        H = vdp_hopf
        assert H.omega == 1.0
        assert H.normalization_residual <= 1e-8
        assert H.ode_residual <= 1e-8
        L = rotation_fde()
        assert np.linalg.norm(char_matrix(L, 1j) @ H.v) <= 1e-10
        pairing = bilinear_pairing(L, H.Psi0, H.Phi0)
        np.testing.assert_allclose(pairing, I2, atol=1e-8)

    def test_scalar_lag_invariants(self, scalar_hopf):
        H = scalar_hopf
        assert H.Phi0.shape == (1, 2)
        assert H.normalization_residual <= 1e-8
        assert H.ode_residual <= 1e-8

    def test_closed_form_pairing_matches_quadrature(self, scalar_hopf):
        # the closed-form normalization u^T Delta'(i) v = 1 must reproduce
        # (Psi, Phi) = I under direct quadrature of the bilinear form
        L = scalar_lag_fde()
        L1, _ = normalize_frequency(L, None, find_hopf_pair(L))
        pairing = bilinear_pairing(L1, scalar_hopf.Psi0, scalar_hopf.Phi0)
        np.testing.assert_allclose(pairing, I2, atol=1e-8)

    @pytest.mark.parametrize("seed", range(4))
    def test_pairing_matches_per_node_quadrature(self, seed):
        rng = np.random.default_rng(40 + seed)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            tau_max = rng.uniform(0.5, 30.0)
            L = random_matrix_measure(
                rng, dim=n, n_atoms=int(rng.integers(0, 4)),
                n_pieces=int(rng.integers(0, 4)), tau_max=tau_max,
            )
            Psi0, Phi0 = rng.normal(size=(n, 2)), rng.normal(size=(n, 2))
            lags, weights, mats = L.nodes(1.0)
            # the size of the summed terms
            size = 1.0 + np.abs(Psi0).max() * np.abs(Phi0).max() * np.sum(
                np.abs(weights) * np.maximum(1.0, lags) * np.abs(mats).max(axis=(1, 2))
            )
            got = bilinear_pairing(L, Psi0, Phi0)
            want = pairing_reference(L, Psi0, Phi0)
            assert np.abs(got - want).max() <= 1e-14 * size

    def test_degenerate_eigenspace(self):
        A = np.zeros((4, 4))
        A[:2, :2] = -J
        A[2:, 2:] = -J
        with pytest.raises(DegenerateEigenspace):
            eigenbasis(_no_delay_fde(A))

    def test_gauge_invariance_of_p_and_q(self, vdp_hopf):
        rng = np.random.default_rng(23)
        g = random_matrix_measure(rng, tau_max=1.5)
        C = rng.normal(size=(2, 2))
        h = uniform(1.0, 0.4)
        q_ref = compute_q(g, vdp_hopf)
        p_ref = p_from_structure(C, h, vdp_hopf).p
        for _ in range(20):
            a, b = rng.normal(size=2)
            if a * a + b * b < 1e-4:
                a = 1.0
            H2 = regauge(vdp_hopf, a, b)
            assert compute_q(g, H2) == pytest.approx(q_ref, abs=1e-10)
            assert p_from_structure(C, h, H2).p == pytest.approx(p_ref, abs=1e-10)

    @pytest.mark.parametrize("omega", [1.0, 2.3])
    def test_gauge_tie_not_broken_by_rounding(self, omega, monkeypatch):
        # x' = omega J x: |v_1| = |v_2|, so the gauge's largest component is
        # a tie. E0 moved by a few ulps per entry must give the same Phi0 and
        # Psi0, where picking the larger by rounding turned them by a
        # quarter turn, and the same q, alpha, beta, trC_hat, trC_hat_J and p
        rng = np.random.default_rng(31)
        L = MatrixDelayMeasure(dim=2, atoms=((0.0, omega * J),))
        g = random_matrix_measure(rng, tau_max=1.5)
        C, h = rng.normal(size=(2, 2)), uniform(1.0, 0.4)

        def invariants(H):
            fs = p_from_structure(C, h, H)
            return [compute_q(g, H), fs.alpha, fs.beta, fs.tr_C_hat, fs.tr_C_hat_J, fs.p]

        H = eigenbasis(L, omega)
        want = invariants(H)
        exact = fde.integrate_matrix
        for _ in range(40):
            ulps = 1.0 + rng.integers(-4, 5, size=(2, 2)) * np.finfo(float).eps
            monkeypatch.setattr(
                fde, "integrate_matrix",
                lambda *args, **kw: exact(*args, **kw) * [ulps, np.ones((2, 2))],
            )
            H2 = eigenbasis(L, omega)
            assert np.abs(H2.Phi0 - H.Phi0).max() <= 1e-12
            assert np.abs(H2.Psi0 - H.Psi0).max() <= 1e-12
            for got, ref in zip(invariants(H2), want):
                assert abs(got - ref) <= 1e-9 * max(1.0, abs(ref))


def _problem_at(rng, omega):
    """A random problem whose L has the root i*omega: a random delay measure
    M (atoms and density pieces) made singular at i*omega by one more atom
    at lag 0. For n >= 2 the atom is the real A0 with A0 v = (i omega I -
    E) v for a random complex v, E = int exp(-i omega s) dM; for n = 1 M is
    scaled so that Im Delta(i omega) = 0 and the atom cancels the real part.
    The feedback is factored or a general measure, at random."""
    n = int(rng.integers(1, 5))
    tau_max = rng.uniform(0.5, 3.0)
    M = random_matrix_measure(
        rng, dim=n, n_atoms=int(rng.integers(0, 3)),
        n_pieces=int(rng.integers(1, 3)), tau_max=tau_max,
    )
    E = integrate_matrix(M, lambda s: np.exp(-1j * omega * s), omega)
    atoms, pieces = list(M.atoms), list(M.pieces)
    if n == 1:
        c = omega / E[0, 0].imag
        atoms = [(s, c * A) for s, A in atoms]
        pieces = [(c * A, pc) for A, pc in pieces]
        A0 = -c * E.real
    else:
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        w = (1j * omega * np.eye(n) - E) @ v
        A0 = np.column_stack([w.real, w.imag]) @ np.linalg.pinv(
            np.column_stack([v.real, v.imag])
        )
    eta = MatrixDelayMeasure(
        dim=n, atoms=tuple(atoms) + ((0.0, A0),), pieces=tuple(pieces),
    )
    feedback = {"f_general": random_matrix_measure(rng, dim=n, tau_max=tau_max)}
    if rng.uniform() < 0.5:
        feedback = {
            "structure_matrix": rng.normal(size=(n, n)),
            "distribution": random_distribution(rng, tau_bar=1.5, halfwidth=1.0),
        }
    pert = PerturbationSpec(
        g_lin=random_matrix_measure(rng, dim=n, tau_max=tau_max),
        kappa=1.0, epsilon=0.1, **feedback,
    )
    return eta, pert


class TestEigenbasisAtOmega:
    """The eigenbasis, q and p read at i*omega on the loaded measures agree
    with the same quantities on the copies rescaled to frequency 1."""

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_rescaled_copies(self, seed):
        rng = np.random.default_rng(700 + seed)
        kinds = set()
        for _ in range(12):
            omega = float(np.exp(rng.uniform(np.log(0.3), np.log(20.0))))
            L, pert = _problem_at(rng, omega)
            H = eigenbasis(L, omega)
            L1, pert1 = normalize_frequency(L, pert, omega)
            H1 = eigenbasis(L1)
            assert H.omega == omega and H1.omega == 1.0
            # only gauge-invariant values: a tie in the gauge's argmax would
            # turn Phi0 and Psi0 of one route against the other's
            pairs = [(compute_q(pert.g_lin, H), compute_q(pert1.g_lin, H1))]
            if pert.factored:
                fs = p_from_structure(pert.structure_matrix, pert.distribution, H)
                fs1 = p_from_structure(pert1.structure_matrix, pert1.distribution, H1)
                pairs += [
                    (fs.alpha, fs1.alpha), (fs.beta, fs1.beta),
                    (fs.tr_C_hat, fs1.tr_C_hat), (fs.tr_C_hat_J, fs1.tr_C_hat_J),
                ]
                size = abs(fs1.alpha * fs1.tr_C_hat) + abs(fs1.beta * fs1.tr_C_hat_J)
                assert abs(fs.p - fs1.p) <= 1e-12 * size
            else:
                F, F1 = pert.f_general, pert1.f_general
                pairs.append((compute_q(F, H), compute_q(F1, H1)))
            for got, want in pairs:
                assert abs(got - want) <= 1e-12 * abs(want)
            # the residuals are the moved frequency-1 references on L1
            pairing = bilinear_pairing(L1, H.Psi0, H.Phi0)
            ode = H.Phi0 @ J - integrate_rotated(L1, H.Phi0)
            assert abs(H.normalization_residual - np.linalg.norm(pairing - I2)) <= 1e-12
            assert abs(H.ode_residual - np.linalg.norm(ode)) <= 1e-12
            assert max(H.normalization_residual, H.ode_residual) <= 1e-8
            kinds.add((L.dim, pert.factored))
        assert len(kinds) >= 3

    def test_shipped_problems_residuals(self):
        analysed = 0
        for path in sorted(PROBLEMS.glob("*.json")):
            L = load_problem(path).linear
            try:
                omega = find_hopf_pair(L)
            except (HopfNotFound, MultiplePairs):
                continue
            H = eigenbasis(L, omega)
            assert H.normalization_residual <= 1e-8, path.name
            assert H.ode_residual <= 1e-8, path.name
            analysed += 1
        assert analysed >= 7

    def test_zero_measures(self):
        # rotation at frequency 2.5: x' = -2.5 J x; measures without a node
        H = eigenbasis(MatrixDelayMeasure(dim=2, atoms=((0.0, -2.5 * J),)), 2.5)
        empty = ScalarDelayDistribution()
        assert compute_q(zero_measure(2), H) == 0.0
        assert p_from_structure(np.eye(2), empty, H).p == 0.0
        tm = measures.trig_moments(empty, 2.5)
        assert (tm.alpha, tm.beta) == (0.0, 0.0)

    def test_analyze_rescales_nothing(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("built a rescaled copy")

        for module, name in [
            (fde, "normalize_frequency"),
            (fde, "scale_matrix_measure"),
            (fde, "_affine_pushforward"),
            (measures, "scale_matrix_measure"),
            (measures, "_affine_pushforward"),
        ]:
            monkeypatch.setattr(module, name, refused)
        names = ["vdp_stabilized", "vdp_uniform", "scalar_lag", "custom_asymmetric"]
        for name in names:
            result = pipeline.analyze(load_problem(PROBLEMS / f"{name}.json"))
            assert result.hopf.omega == result.omega
        # nor does the mu-scan, at omega = 1 and at omega = 12
        for name in ["vdp_uniform", "custom_asymmetric", "fast_rotation_uniform"]:
            assert cli.main(["scan", str(PROBLEMS / f"{name}.json"), "--mu=0:2:50"]) == 0

    def test_eigvals_once_per_analysis(self, monkeypatch):
        calls = []
        eigvals = np.linalg.eigvals

        def counted(a):
            calls.append(a)
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", counted)
        pipeline.analyze(vdp_problem(5.0))
        assert len(calls) == 1


class TestPerturbationSpec:
    def test_requires_some_feedback(self):
        with pytest.raises(ValueError):
            PerturbationSpec(g_lin=zero_measure(2), kappa=1.0, epsilon=0.1)

    def test_factored_needs_distribution(self):
        with pytest.raises(ValueError):
            PerturbationSpec(
                g_lin=zero_measure(2),
                kappa=1.0,
                epsilon=0.1,
                structure_matrix=np.eye(2),
            )

    def test_feedback_measure_assembly(self):
        C = feedback_matrix(5.0)
        pert = PerturbationSpec(
            g_lin=zero_measure(2),
            kappa=1.0,
            epsilon=0.1,
            structure_matrix=C,
            distribution=dirac(1.0),
        )
        assert pert.factored
        F = feedback_measure(pert)
        assert len(F.atoms) == 1
        lag, mat = F.atoms[0]
        assert lag == 1.0
        np.testing.assert_allclose(mat, C, atol=1e-15)

    def test_general_measure_flagged(self):
        F = MatrixDelayMeasure(dim=2, atoms=((1.0, np.eye(2)),))
        pert = PerturbationSpec(
            g_lin=zero_measure(2), kappa=1.0, epsilon=0.1, f_general=F
        )
        assert not pert.factored
        assert feedback_measure(pert) is F
