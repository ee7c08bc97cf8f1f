"""Eigenvalues come from ``np.linalg.eigvals``; ``lti.spectral_radius`` wraps it.

The characteristic-polynomial oracle and the defective Jordan cluster check
the numpy path on the spectra the stability tests depend on.
"""

import numpy as np
import pytest

from cwcancel.lti import spectral_radius


def _match_sets(got, want, tol):
    """Greedy nearest-neighbour matching of two complex spectra."""
    got = list(got)
    for w in want:
        dists = [abs(g - w) for g in got]
        i = int(np.argmin(dists))
        assert dists[i] <= tol, f"no eigenvalue within {tol} of {w}: nearest {dists[i]}"
        got.pop(i)


def _charpoly(M):
    """Characteristic polynomial by the Faddeev-LeVerrier trace recursion."""
    n = M.shape[0]
    coeffs = np.zeros(n + 1)
    coeffs[0] = 1.0
    N = np.eye(n)
    for k in range(1, n + 1):
        N = M @ N
        c = -np.trace(N) / k
        coeffs[k] = c
        N = N + c * np.eye(n)
    return coeffs


def _polish_roots(coeffs, roots, iters=3):
    d = np.polyder(coeffs)
    for _ in range(iters):
        roots = roots - np.polyval(coeffs, roots) / np.polyval(d, roots)
    return roots


def test_diagonal():
    _match_sets(np.linalg.eigvals(np.diag([0.5, -0.3])), [0.5, -0.3], 1e-14)
    assert spectral_radius(np.diag([0.5, -0.3])) == pytest.approx(0.5, abs=1e-14)


def test_rotation_pair():
    R = np.array([[0.0, -1.0], [1.0, 0.0]])
    _match_sets(np.linalg.eigvals(R), [1j, -1j], 1e-14)
    assert spectral_radius(R) == pytest.approx(1.0, abs=1e-12)


def test_random_8x8_vs_charpoly_roots():
    # Companion-matrix roots of the characteristic polynomial, Newton-polished,
    # as an oracle independent of the Hessenberg/QR path inside LAPACK.
    rng = np.random.default_rng(21)
    for _ in range(10):
        M = rng.standard_normal((8, 8))
        coeffs = _charpoly(M)
        oracle = _polish_roots(coeffs, np.roots(coeffs))
        _match_sets(np.linalg.eigvals(M), oracle, 1e-8)


def test_spectral_radius_matches_max_modulus():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        M = rng.standard_normal((n, n))
        assert spectral_radius(M) == pytest.approx(np.abs(np.linalg.eigvals(M)).max(), rel=1e-12)


def test_defective_cluster_converges():
    # A large Jordan-type cluster stalls a naive Francis iteration.
    # Perturbed Jordan eigenvalues scatter on a circle of radius ~||E||^(1/n).
    rng = np.random.default_rng(24)
    n = 20
    J = -2.0 * np.eye(n) + np.eye(n, k=1) + 1e-13 * rng.standard_normal((n, n))
    assert np.abs(np.linalg.eigvals(J) + 2.0).max() < 0.4


def test_empty_and_scalar():
    assert spectral_radius(np.zeros((0, 0))) == 0.0
    assert np.linalg.eigvals(np.array([[-3.5]]))[0] == -3.5
    assert spectral_radius(np.array([[-3.5]])) == 3.5
