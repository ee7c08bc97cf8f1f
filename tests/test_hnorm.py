import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cwcancel import hnorm
from cwcancel.hnorm import UnstableSystemError, exceeds, frequency_response, hinf_norm_discrete
from cwcancel.lifting import closed_loop
from cwcancel.lti import NumericalFailure, StateSpace
from cwcancel.synthesis import CERT_TOL, Infeasible, synthesize_at_gamma


def random_stable_discrete(rng, n_max=10, radius=0.92):
    """Random Schur-stable system built from a prescribed eigenvalue set."""
    n = int(rng.integers(1, n_max + 1))
    p, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    lam = radius * (2.0 * rng.random(n) - 1.0)
    T = rng.standard_normal((n, n)) + np.eye(n)
    A = np.linalg.solve(T, np.diag(lam)) @ T
    return StateSpace(A, rng.standard_normal((n, m)), rng.standard_normal((p, n)),
                      rng.standard_normal((p, m)), dt=1.0)


def gain_oracle(sys, thetas):
    """sigma_max(G(e^{j theta})) via eigendecomposition (oracle path)."""
    lam, V = np.linalg.eig(sys.A)
    CV = sys.C @ V
    VB = np.linalg.solve(V, sys.B)
    z = np.exp(1j * np.asarray(thetas))
    H = np.einsum("pi,fi,iq->fpq", CV, 1.0 / (z[:, None] - lam[None, :]), VB) + sys.D
    return np.linalg.svd(H, compute_uv=False)[:, 0]


def grid_oracle(sys, points=2 ** 16):
    """Dense-grid peak gain via eigendecomposition (oracle path)."""
    th = np.linspace(0.0, np.pi, points)
    return float(max(gain_oracle(sys, th[chunk]).max()
                     for chunk in np.array_split(np.arange(points), 16)))


def test_pure_gain():
    g = StateSpace(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((2, 0)),
                   [[3.0, 0.0], [0.0, 1.0]], dt=1.0)
    assert hinf_norm_discrete(g, tol=1e-4) == pytest.approx(3.0, abs=1e-14)


def test_fir_two_taps():
    # H(z) = 1 + z^-1 peaks at omega = 0 with value 2.
    sys = StateSpace([[0.0]], [[1.0]], [[1.0]], [[1.0]], dt=1.0)
    assert hinf_norm_discrete(sys, tol=1e-4) == pytest.approx(2.0, abs=1e-10)


def test_first_order_pole():
    # H(z) = 0.5/(z - 0.5) peaks at omega = 0 with value 1.
    sys = StateSpace([[0.5]], [[1.0]], [[0.5]], [[0.0]], dt=1.0)
    assert hinf_norm_discrete(sys, tol=1e-4) == pytest.approx(1.0, abs=1e-10)


def test_against_dense_grid_oracle():
    rng = np.random.default_rng(41)
    for _ in range(12):
        sys = random_stable_discrete(rng, n_max=8)
        mine = hinf_norm_discrete(sys, tol=1e-6)
        ref = grid_oracle(sys, points=2 ** 14)
        assert mine == pytest.approx(ref, rel=1e-4)


def test_unstable_raises():
    sys = StateSpace([[1.01]], [[1.0]], [[1.0]], [[0.0]], dt=1.0)
    with pytest.raises(UnstableSystemError):
        hinf_norm_discrete(sys, tol=1e-4)


def test_requires_discrete_time():
    sys = StateSpace([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
    with pytest.raises(ValueError):
        hinf_norm_discrete(sys, tol=1e-4)


def test_frequency_response_values():
    sys = StateSpace([[0.5]], [[1.0]], [[0.5]], [[0.0]], dt=1.0)
    th = np.array([0.0, np.pi / 2, np.pi])
    H = frequency_response(sys, th)[:, 0, 0]
    ref = 0.5 / (np.exp(1j * th) - 0.5)
    assert np.abs(H - ref).max() < 1e-13


def test_lightly_damped_resonance():
    # Poles r e^{+-j theta0} of a normal A: the peak is 1/(1 - r) at theta0.
    r, th0, tol = 1.0 - 1e-5, 1.0, 1e-6
    A = r * np.array([[np.cos(th0), -np.sin(th0)], [np.sin(th0), np.cos(th0)]])
    sys = StateSpace(A, np.eye(2), np.eye(2), np.zeros((2, 2)), dt=1.0)
    peak = 1.0 / (1.0 - r)
    cert = hinf_norm_discrete(sys, tol=tol)
    assert peak / (1.0 + 2.0 * tol) <= cert <= peak * (1.0 + 1e-9)


def test_peak_at_nyquist():
    # H(z) = 0.5/(z + 0.5) peaks at theta = pi (s = infinity) with value 1.
    sys = StateSpace([[-0.5]], [[1.0]], [[0.5]], [[0.0]], dt=1.0)
    assert hinf_norm_discrete(sys, tol=1e-6) == pytest.approx(1.0, rel=1e-12)


def test_pole_near_minus_one():
    # H(z) = 0.5/(z + 0.999): A + I is badly conditioned and the peak 500 sits
    # at theta = pi.
    sys = StateSpace([[-0.999]], [[1.0]], [[0.5]], [[0.0]], dt=1.0)
    assert hinf_norm_discrete(sys, tol=1e-6) == pytest.approx(500.0, rel=1e-12)


def test_pole_near_minus_one_image_feedthrough_rounds_above_seed():
    """A pole at -(1 - 1e-7) behind a non-normal similarity: the gain peaks
    at theta = pi, and sigma_max(D_c) of the continuous image rounds about
    5e-10 above the gain the seed computes there.  At tol 1e-6 the proof
    holds; at tol 1e-12 no level above the seed is below sigma_max(D_c), so
    no bound is proven."""
    rng = np.random.default_rng(0)
    T = rng.standard_normal((3, 3)) + np.eye(3)
    A = np.linalg.solve(T, np.diag([-(1.0 - 1e-7), 0.3, -0.2])) @ T
    sys = StateSpace(A, rng.standard_normal((3, 2)), rng.standard_normal((2, 3)),
                     np.zeros((2, 2)), dt=1.0)
    pi_gain = gain_oracle(sys, [np.pi])[0]
    # cond(A + I) is about 2e7, so any evaluation of G(-1) is good to about 1e-8.
    assert hinf_norm_discrete(sys, tol=1e-6) == pytest.approx(pi_gain, rel=1e-7)
    with pytest.raises(NumericalFailure, match="not bracketed"):
        hinf_norm_discrete(sys, tol=1e-12)


def test_pole_at_minus_one_to_working_precision_is_a_failure():
    # Schur stable, but cond(A + I) > 1e14: the bilinear image does not exist.
    sys = StateSpace(np.diag([-1.0 + 1e-15, 0.5]), np.ones((2, 1)), np.ones((1, 2)),
                     [[0.0]], dt=1.0)
    with pytest.raises(NumericalFailure, match="condition number"):
        hinf_norm_discrete(sys, tol=1e-4)


@pytest.mark.parametrize("c2", [0.25, 0.5])
def test_peak_equals_feedthrough(c2):
    # G = diag(1, c2/(z - 0.5)): sigma_max is 1 at every frequency, so the
    # peak equals sigma_max(D) and R = gamma^2 I - D^T D is nearly singular
    # at every test level.
    sys = StateSpace([[0.5]], [[0.0, 1.0]], [[0.0], [c2]], [[1.0, 0.0], [0.0, 0.0]], dt=1.0)
    for tol in (1e-4, 1e-6):
        assert hinf_norm_discrete(sys, tol=tol) == pytest.approx(1.0, rel=1e-12)


def test_gain_vanishing_at_both_ends():
    # H(z) = 1 - z^-2 is zero at theta = 0 and pi and peaks at pi/2 with 2.
    sys = StateSpace([[0.0, 0.0], [1.0, 0.0]], [[1.0], [0.0]], [[0.0, -1.0]], [[1.0]], dt=1.0)
    assert hinf_norm_discrete(sys, tol=1e-6) == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize("zero", ["B", "C", "no inputs", "no outputs"])
def test_zero_transfer_function_has_zero_norm(zero, monkeypatch):
    # B = 0 or C = 0 with D = 0, or no input or no output at all: every gain,
    # and every seed, is exactly 0, and the bilinear image is never formed.
    rng = np.random.default_rng(7)
    A = 0.5 * np.eye(3) + 0.1 * rng.standard_normal((3, 3))
    B, C = rng.standard_normal((3, 2)), rng.standard_normal((2, 3))
    m, p = 2, 2
    if zero == "B":
        B[:] = 0.0
    elif zero == "C":
        C[:] = 0.0
    elif zero == "no inputs":
        B, m = np.zeros((3, 0)), 0
    else:
        C, p = np.zeros((0, 3)), 0
    sys = StateSpace(A, B, C, np.zeros((p, m)), dt=1.0)
    monkeypatch.delattr(hnorm, "bilinear_to_continuous")
    assert hinf_norm_discrete(sys, tol=1e-6) == 0.0


def test_seeds_zero_up_to_rounding():
    # H(z) = z^-1 - z^-5 vanishes at theta = 0, pi/2 and pi (z^4 = 1), where
    # its computed gains are 0, 2.4e-16 and 4.9e-16; the bracket still
    # climbs from there to the peak 2 at theta = pi/4.
    A = np.diag(np.ones(4), -1)
    B = np.eye(5)[:, :1]
    C = np.array([[1.0, 0.0, 0.0, 0.0, -1.0]])
    sys = StateSpace(A, B, C, [[0.0]], dt=1.0)
    assert hinf_norm_discrete(sys, tol=1e-6) == pytest.approx(2.0, rel=1e-12)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), radius=st.floats(0.1, 0.97),
       thetas=st.lists(st.floats(0.0, np.pi), min_size=1, max_size=16))
def test_certificate_brackets_random_systems(seed, radius, thetas):
    """g*(1+2*tol) bounds the gain at any frequency, and g is no more than
    the dense-grid oracle allows.  A general random A gives complex poles,
    so peaks fall between theta = 0 and pi."""
    tol = 1e-4
    rng = np.random.default_rng(seed)
    n, p, m = (int(k) for k in rng.integers(1, [9, 4, 4]))
    A = rng.standard_normal((n, n))
    A *= radius / np.abs(np.linalg.eigvals(A)).max()
    sys = StateSpace(A, rng.standard_normal((n, m)), rng.standard_normal((p, n)),
                     rng.standard_normal((p, m)), dt=1.0)
    cert = hinf_norm_discrete(sys, tol=tol)
    upper = cert * (1.0 + 2.0 * tol) * (1.0 + 1e-12)
    grid = grid_oracle(sys, points=2 ** 14)
    assert gain_oracle(sys, thetas).max() <= upper
    assert grid <= upper
    assert cert <= grid * (1.0 + 2.0 * tol)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_level_test_agrees_with_certificate(seed):
    """Just above the certified bracket the level test proves the norm below
    the level; just below the norm it returns an attained gain near or above
    the level, within the bracket."""
    rng = np.random.default_rng(seed)
    sys = random_stable_discrete(rng, n_max=6)
    g = hinf_norm_discrete(sys, tol=1e-6)
    assert exceeds(sys, g * (1.0 + 2e-6) * (1.0 + 1e-3)) is None
    level = g * (1.0 - 1e-3)
    gain = exceeds(sys, level)
    assert gain is not None
    assert level * (1.0 - 5e-7) <= gain <= g * (1.0 + 2e-6)


def test_level_test_finds_peak_at_dc():
    """G = 0.1/(z - 0.9) peaks at 1 at theta = 0, while sigma_max(D_c), its
    gain 0.1/1.9 at theta = pi, is below the level: the Hamiltonian test
    alone must return a gain near or above the level."""
    sys = StateSpace([[0.9]], [[1.0]], [[0.1]], [[0.0]], dt=1.0)
    level = 0.5
    gain = exceeds(sys, level)
    assert gain is not None
    assert level * (1.0 - 5e-7) <= gain <= 1.0 + 1e-12


@pytest.mark.parametrize("sys, level, expected", [
    # 1/(z + 0.5) peaks at theta = pi, where it equals D_c = -2.
    (StateSpace([[-0.5]], [[1.0]], [[1.0]], [[0.0]], dt=1.0), 1.0, 2.0),
    (StateSpace([[-0.5]], [[1.0]], [[1.0]], [[0.0]], dt=1.0), 2.0, 2.0),
    (StateSpace(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((2, 0)),
                [[3.0, 0.0], [0.0, 1.0]], dt=1.0), 2.5, 3.0),
])
def test_feedthrough_at_or_above_level_is_returned(sys, level, expected):
    """sigma_max(D_c) >= level fails the Cholesky premise of the proof, and
    exceeds returns that gain."""
    assert exceeds(sys, level) == pytest.approx(expected, rel=1e-12)


class TestProofPremises:
    """exceeds and hinf_norm_discrete refuse, before any bilinear map, every
    input for which a missing crossing proves nothing."""

    @pytest.fixture(autouse=True)
    def no_bilinear_map(self, monkeypatch):
        monkeypatch.delattr(hnorm, "bilinear_to_continuous")

    def test_exceeds_refuses_an_unstable_system(self):
        # x+ = 2x + u: the norm is infinite, yet no Hamiltonian eigenvalue
        # lies on the axis at level 2.
        sys = StateSpace([[2.0]], [[1.0]], [[1.0]], [[0.0]], dt=1.0)
        with pytest.raises(UnstableSystemError, match="^system: spectral radius 2.0"):
            exceeds(sys, 2.0)

    def test_exceeds_refuses_a_continuous_system(self):
        sys = StateSpace([[-0.5]], [[1.0]], [[1.0]], [[0.0]])
        with pytest.raises(ValueError, match="discrete-time"):
            exceeds(sys, 0.5)

    @pytest.mark.parametrize("level", [np.nan, 0.0, -1.0, np.inf])
    def test_exceeds_refuses_a_level_that_is_not_finite_and_positive(self, level):
        sys = StateSpace([[0.5]], [[1.0]], [[1.0]], [[0.0]], dt=1.0)
        with pytest.raises(ValueError, match="finite positive level"):
            exceeds(sys, level)

    @pytest.mark.parametrize("tol", [np.nan, 0.0, -1e-3, np.inf])
    def test_norm_refuses_a_tol_that_is_not_finite_and_positive(self, tol):
        sys = StateSpace([[0.5]], [[1.0]], [[1.0]], [[0.0]], dt=1.0)
        with pytest.raises(ValueError, match="finite positive tol"):
            hinf_norm_discrete(sys, tol=tol)


class TestCertificateStopsAtItsProof:
    """hinf_norm_discrete returns the lower bound of the first level test
    that finds no crossing, and _test_level alone decides the proof's
    premise sigma_max(D_c) < level."""

    @staticmethod
    def _record(monkeypatch):
        """(calls, angles): each _test_level result and each angle at which
        the gain is evaluated, as the certificate runs."""
        calls, angles = [], []
        test_level, sigma_max = hnorm._test_level, hnorm._sigma_max

        def recording_test_level(*args):
            calls.append(test_level(*args))
            return calls[-1]

        def recording_sigma_max(sys, thetas):
            angles.extend(np.atleast_1d(thetas))
            return sigma_max(sys, thetas)

        monkeypatch.setattr(hnorm, "_test_level", recording_test_level)
        monkeypatch.setattr(hnorm, "_sigma_max", recording_sigma_max)
        return calls, angles

    def test_default_certificate_is_one_level_test(self, monkeypatch, default_lifted,
                                                  designed_controller):
        """At the defaults the seed's level is proven at once, so the gain is
        evaluated only at the three seed angles."""
        calls, angles = self._record(monkeypatch)
        cl = closed_loop(default_lifted, designed_controller.K)
        g = hinf_norm_discrete(cl, tol=CERT_TOL)
        assert g == designed_controller.gamma_certified
        assert calls == [(0.0, False)]
        assert len(angles) == 3

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_last_level_test_is_the_first_without_crossing(self, monkeypatch, seed):
        # Poles 0.95 e^{+-j}: the gain peaks near theta = 1, between the seeds.
        A = 0.95 * np.array([[np.cos(1.0), -np.sin(1.0)], [np.sin(1.0), np.cos(1.0)]])
        rng = np.random.default_rng(seed)
        sys = StateSpace(A, rng.standard_normal((2, 2)), rng.standard_normal((2, 2)),
                         0.1 * rng.standard_normal((2, 2)), dt=1.0)
        calls, _ = self._record(monkeypatch)
        g = hinf_norm_discrete(sys, tol=1e-6)
        crossed = [c for _, c in calls]
        assert len(calls) >= 2
        assert crossed == [True] * (len(calls) - 1) + [False]
        assert g == max(peak for peak, _ in calls)

    def test_not_bracketed_after_the_last_pass(self, monkeypatch):
        """H(z) = z^-1 - z^-5 is about 0 at every seed angle, so its first
        pass crosses; with one pass allowed no bound is proven."""
        A = np.diag(np.ones(4), -1)
        sys = StateSpace(A, np.eye(5)[:, :1], [[1.0, 0.0, 0.0, 0.0, -1.0]], [[0.0]], dt=1.0)
        calls, _ = self._record(monkeypatch)
        monkeypatch.setattr(hnorm, "_MAX_PASSES", 1)
        with pytest.raises(NumericalFailure, match="not bracketed"):
            hinf_norm_discrete(sys, tol=1e-6)
        assert [c for _, c in calls] == [True]

    @pytest.fixture
    def failing_cholesky(self, monkeypatch):
        """Cholesky factorizations fail, whatever the level."""
        def fail(M):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", fail)

    def test_premise_failing_below_the_level_is_a_numerical_failure(self, failing_cholesky):
        # G = 0.1/(z - 0.9): the gain at theta = pi is 0.1/1.9, far below 0.5.
        sys = StateSpace([[0.9]], [[1.0]], [[0.1]], [[0.0]], dt=1.0)
        with pytest.raises(NumericalFailure, match="sigma_max\\(D_c\\) reaches the level"):
            exceeds(sys, 0.5)
        with pytest.raises(NumericalFailure, match="not bracketed"):
            hinf_norm_discrete(sys, tol=1e-6)

    def test_premise_failing_below_the_level_makes_a_probe_infeasible(
            self, default_lifted, designed_controller, failing_cholesky):
        res = synthesize_at_gamma(default_lifted, designed_controller.gamma_achieved)
        assert isinstance(res, Infeasible)
        assert res.reason == "closed_loop"
        assert "sigma_max(D_c) reaches the level" in res.detail
