import numpy as np
import pytest

from cwcancel.lti import StateSpace, discretize_zoh, matrix_exponential


def test_zero_state_cases_take_the_general_path():
    assert matrix_exponential(np.zeros((0, 0))).shape == (0, 0)
    sys = StateSpace(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((3, 0)),
                     np.arange(6.0).reshape(3, 2))
    d = discretize_zoh(sys, 0.5)
    for name in "ABCD":
        got, want = getattr(d, name), getattr(sys, name)
        assert got.shape == want.shape and np.array_equal(got, want)
    assert d.dt == 0.5


class TestMatrixExponential:
    def test_zero_matrix_gives_identity(self):
        assert np.array_equal(matrix_exponential(np.zeros((2, 2))), np.eye(2))

    def test_scalar_closed_form(self):
        got = matrix_exponential([[-62.5]])[0, 0]
        assert abs(got - np.exp(-62.5)) <= 1e-12 * np.exp(-62.5)

    def test_nilpotent_series_terminates(self):
        got = matrix_exponential([[0.0, 1.0], [0.0, 0.0]])
        assert np.allclose(got, [[1.0, 1.0], [0.0, 1.0]], atol=1e-14)

    def test_inverse_identity(self):
        # e^M e^{-M} = I to 1e-10 for moderate norms.
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            M = rng.standard_normal((n, n))
            M *= min(1.0, 10.0 / np.linalg.norm(M, 2))
            P = matrix_exponential(M) @ matrix_exponential(-M)
            assert np.abs(P - np.eye(n)).max() < 1e-10

    def test_against_scipy(self):
        from scipy.linalg import expm

        rng = np.random.default_rng(12)
        for _ in range(20):
            n = int(rng.integers(1, 9))
            M = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-2, 3)
            ref = expm(M)
            got = matrix_exponential(M)
            assert np.abs(got - ref).max() <= 1e-10 * max(1.0, np.abs(ref).max())

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="needs a square matrix"):
            matrix_exponential(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            matrix_exponential([[np.nan]])


class TestDiscretizeZoh:
    def test_integrator(self):
        sys = StateSpace([[0.0]], [[1.0]], [[1.0]], [[0.0]])
        d = discretize_zoh(sys, 1.0)
        assert abs(d.A[0, 0] - 1.0) < 1e-14
        assert abs(d.B[0, 0] - 1.0) < 1e-14
        assert d.dt == 1.0

    def test_post_filter_closed_form(self):
        # 1/(0.001 s + 1) at the default fast step 1/16.
        sys = StateSpace([[-1000.0]], [[1000.0]], [[1.0]], [[0.0]])
        d = discretize_zoh(sys, 1.0 / 16.0)
        assert abs(d.A[0, 0] - np.exp(-62.5)) <= 1e-12
        assert abs(d.B[0, 0] - (1.0 - np.exp(-62.5))) <= 1e-12

    def test_input_shaping_closed_form(self):
        # 1/(2 s + 1) at the default fast step 1/16.
        sys = StateSpace([[-0.5]], [[0.5]], [[1.0]], [[0.0]])
        d = discretize_zoh(sys, 1.0 / 16.0)
        assert abs(d.A[0, 0] - np.exp(-1.0 / 32.0)) <= 1e-12
        assert abs(d.B[0, 0] - (1.0 - np.exp(-1.0 / 32.0))) <= 1e-12

    def test_invertible_a_identity(self):
        # Bd = A^-1 (Ad - I) B when A is invertible.
        rng = np.random.default_rng(4)
        for _ in range(20):
            n, m = int(rng.integers(1, 6)), int(rng.integers(1, 4))
            A = rng.standard_normal((n, n)) - 2.0 * np.eye(n)
            B = rng.standard_normal((n, m))
            d = discretize_zoh(StateSpace(A, B, np.eye(n), np.zeros((n, m))), 0.3)
            ref = np.linalg.solve(A, (d.A - np.eye(n)) @ B)
            assert np.abs(d.B - ref).max() < 1e-10

    def test_semigroup(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            A = rng.standard_normal((n, n))
            sys = StateSpace(A, rng.standard_normal((n, 1)), np.ones((1, n)), [[0.0]])
            tau = float(rng.uniform(0.05, 0.8))
            one = discretize_zoh(sys, tau)
            two = discretize_zoh(sys, 2.0 * tau)
            assert np.abs(two.A - one.A @ one.A).max() < 1e-10 * max(1.0, np.abs(two.A).max())

    def test_rejects_bad_step(self):
        sys = StateSpace([[0.0]], [[1.0]], [[1.0]], [[0.0]])
        with pytest.raises(ValueError):
            discretize_zoh(sys, 0.0)
        with pytest.raises(ValueError):
            discretize_zoh(sys, -1.0)

    def test_rejects_discrete_input(self):
        sys = StateSpace([[0.5]], [[1.0]], [[1.0]], [[0.0]], dt=1.0)
        with pytest.raises(ValueError):
            discretize_zoh(sys, 0.1)


class TestStateSpace:
    def test_dimension_checks(self):
        with pytest.raises(ValueError, match="A must be square"):
            StateSpace(np.zeros((2, 3)), np.zeros((2, 1)), np.zeros((1, 2)), np.zeros((1, 1)))
        with pytest.raises(ValueError, match="B has 3 rows, expected 2"):
            StateSpace(np.zeros((2, 2)), np.zeros((3, 1)), np.zeros((1, 2)), np.zeros((1, 1)))
        with pytest.raises(ValueError, match="C has 3 cols, expected 2"):
            StateSpace(np.zeros((2, 2)), np.zeros((2, 1)), np.zeros((1, 3)), np.zeros((1, 1)))
        with pytest.raises(ValueError, match="D must be 1x1, got"):
            StateSpace(np.zeros((2, 2)), np.zeros((2, 1)), np.zeros((1, 2)), np.zeros((2, 2)))

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            StateSpace([[0.5]], [[1.0]], [[1.0]], [[0.0]], dt=0.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            StateSpace([[np.inf]], [[1.0]], [[1.0]], [[0.0]])

    def test_zero_state_gain(self):
        g = StateSpace(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((2, 0)), np.eye(2))
        assert g.n_states == 0 and g.n_inputs == 2 and g.n_outputs == 2

    @pytest.mark.parametrize("b, c, d", [
        ([], [[], []], [[0.0, 0.0], [0.0, 0.0]]),  # a static 2 x 2 controller's JSON
        ([], [], [[1.0]]),  # a zero-state filter in a config
    ])
    def test_empty_a_has_zero_states(self, b, c, d):
        """JSON writes a zero-state A as [], which numpy reads as 1 x 0."""
        g = StateSpace([], b, c, d)
        assert g.A.shape == (0, 0)
        assert g.B.shape == (0, len(d[0])) and g.C.shape == (len(d), 0)
