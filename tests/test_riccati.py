import numpy as np
import pytest

from cwcancel import riccati
from cwcancel.lti import NumericalFailure, spectral_radius
from cwcancel.riccati import care_stabilizing, solve_care


def random_stabilizable(rng, n_max=8):
    """Random (A, B, Q, R) with (A, B) stabilizable by construction."""
    n = int(rng.integers(1, n_max + 1))
    m = int(rng.integers(1, 4))
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, m))
    # Shift A until unstabilizable modes are ruled out: a fully random B
    # makes (A, B) controllable with probability one, so any A works.
    Qr = rng.standard_normal((n, n))
    Q = Qr.T @ Qr
    Rr = rng.standard_normal((m, m))
    R = Rr.T @ Rr + np.eye(m)
    return A, B, Q, R


def test_scalar_no_drift():
    X = solve_care([[0.0]], [[1.0]], [[1.0]], [[1.0]])
    assert X[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_scalar_unstable_plant():
    X = solve_care([[1.0]], [[1.0]], [[1.0]], [[1.0]])
    assert X[0, 0] == pytest.approx(1.0 + np.sqrt(2.0), abs=1e-12)


def test_random_instances_residual_and_stability():
    rng = np.random.default_rng(31)
    for _ in range(100):
        A, B, Q, R = random_stabilizable(rng)
        X = solve_care(A, B, Q, R)
        res = A.T @ X + X @ A - X @ B @ np.linalg.solve(R, B.T) @ X + Q
        assert np.linalg.norm(res, "fro") <= 1e-8 * (1.0 + np.linalg.norm(X, "fro"))
        closed = A - B @ np.linalg.solve(R, B.T @ X)
        assert np.linalg.eigvals(closed).real.max() < 0.0


def test_matches_scipy():
    from scipy.linalg import solve_continuous_are

    rng = np.random.default_rng(32)
    for _ in range(25):
        A, B, Q, R = random_stabilizable(rng, n_max=6)
        X = solve_care(A, B, Q, R)
        ref = solve_continuous_are(A, B, Q, R)
        assert np.abs(X - ref).max() <= 1e-7 * (1.0 + np.abs(ref).max())


def test_imaginary_axis_hamiltonian_raises():
    # Undamped oscillator with no actuation authority and no cost: the
    # Hamiltonian sits exactly on the imaginary axis.
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    with pytest.raises(NumericalFailure, match="sign iteration"):
        care_stabilizing(A, np.zeros((2, 2)), np.zeros((2, 2)))


def test_input_validation():
    with pytest.raises(ValueError, match="Q must be positive semidefinite"):
        solve_care([[0.0]], [[1.0]], [[-1.0]], [[1.0]])
    with pytest.raises(ValueError, match="R must be positive definite"):
        solve_care([[0.0]], [[1.0]], [[1.0]], [[0.0]])
    with pytest.raises(ValueError, match="Q must be symmetric"):  # a 1x2 Q
        solve_care([[0.0]], [[1.0]], [[1.0, 0.0]], [[1.0]])


def test_residual_miss_raises(monkeypatch):
    # A slightly wrong sign tilts the stable subspace and puts X about 3e-6
    # off the solution 1 + sqrt(2), far outside the residual tolerance; the
    # solve must refuse it rather than polish it.
    true_sign = riccati._matrix_sign
    monkeypatch.setattr(riccati, "_matrix_sign",
                        lambda H: true_sign(H) + 1e-6 * np.eye(H.shape[0], k=1))
    with pytest.raises(NumericalFailure, match="residual"):
        care_stabilizing([[1.0]], [[1.0]], [[1.0]])


def is_hurwitz(A):
    return np.linalg.eigvals(A).real.max() < 0


def is_schur(A):
    return spectral_radius(A) < 1


def test_stability_predicates():
    # The predicates every stability verdict in the package uses.
    assert is_hurwitz(-np.eye(3))
    assert not is_hurwitz(np.array([[1.0]]))
    assert not is_hurwitz(np.array([[0.0, 1.0], [-1.0, 0.0]]))  # axis
    assert is_schur(0.5 * np.eye(4))
    assert not is_schur(np.eye(2))
    assert not is_schur(np.array([[1.2, 0.0], [0.0, 0.3]]))
    # Heavily defective but comfortably stable clusters: the eigenvalues
    # scatter, but not across the boundary.
    n = 30
    J = -2.0 * np.eye(n) + np.eye(n, k=1)
    assert is_hurwitz(J)
    Jd = 0.3 * np.eye(n) + np.eye(n, k=1) * 0.5
    assert is_schur(Jd)
