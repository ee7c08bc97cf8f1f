import numpy as np
import pytest

from cwcancel.riccati import (
    NoStabilizingSolution,
    care_stabilizing,
    is_hurwitz,
    is_schur,
    solve_care,
)


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
    with pytest.raises(NoStabilizingSolution):
        care_stabilizing(A, np.zeros((2, 2)), np.zeros((2, 2)))


def test_input_validation():
    with pytest.raises(ValueError):
        solve_care([[0.0]], [[1.0]], [[-1.0]], [[1.0]])  # Q not PSD
    with pytest.raises(ValueError):
        solve_care([[0.0]], [[1.0]], [[1.0]], [[0.0]])  # R not PD
    with pytest.raises(ValueError):
        solve_care([[0.0]], [[1.0]], [[1.0, 0.0]], [[1.0]])  # Q shape


def test_stability_predicates():
    assert is_hurwitz(-np.eye(3))
    assert not is_hurwitz(np.array([[1.0]]))
    assert not is_hurwitz(np.array([[0.0, 1.0], [-1.0, 0.0]]))  # axis
    assert is_schur(0.5 * np.eye(4))
    assert not is_schur(np.eye(2))
    assert not is_schur(np.array([[1.2, 0.0], [0.0, 0.3]]))
    # Heavily defective but comfortably stable cluster: the QR-free test
    # must not be fooled.
    n = 30
    J = -2.0 * np.eye(n) + np.eye(n, k=1)
    assert is_hurwitz(J)
    Jd = 0.3 * np.eye(n) + np.eye(n, k=1) * 0.5
    assert is_schur(Jd)
