"""Continuous algebraic Riccati equations via the matrix sign function.

The stable invariant subspace of the Hamiltonian comes from one scaled
Newton sign iteration (Roberts, Int. J. Control 1980), so the same core
serves both the standard LQ-type equation (PSD quadratic term) and the
indefinite equations that show up in gamma-level feedback synthesis.  The
solution is not refined: a non-converging sign iteration, a residual above
``CARE_RESIDUAL_RTOL`` or a non-Hurwitz A - GX is reported through
:class:`~cwcancel.lti.NumericalFailure`, which the bisection loop reads as
"gamma infeasible"."""

from __future__ import annotations

import numpy as np

from .lti import NumericalFailure, _as_matrix, _block2

__all__ = ["solve_care", "care_stabilizing"]

CARE_RESIDUAL_RTOL = 1e-8
SIGN_MAX_ITER = 120


def _matrix_sign(H: np.ndarray) -> np.ndarray:
    """sign(H) by Newton iteration with determinant scaling."""
    Z = H.copy()
    n2 = Z.shape[0]
    rel_err = 1.0
    for _ in range(SIGN_MAX_ITER):
        try:
            Zinv = np.linalg.inv(Z)
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure(f"sign iteration hit a singular iterate: {exc}")
        if not np.all(np.isfinite(Zinv)):
            raise NumericalFailure("sign iteration diverged (non-finite inverse)")
        if rel_err > 1e-2:
            sign_det, logdet = np.linalg.slogdet(Z)
            if sign_det == 0:
                raise NumericalFailure("sign iteration: singular determinant")
            c = np.exp(-logdet / n2)
        else:
            c = 1.0
        Znew = 0.5 * (c * Z + Zinv / c)
        d, z = (Znew - Z).ravel("K"), Z.ravel("K")  # np.linalg.norm's "fro" route
        rel_err = np.sqrt(d.dot(d)) / max(np.sqrt(z.dot(z)), 1e-300)
        Z = Znew
        if rel_err <= 50.0 * n2 * np.finfo(float).eps:
            return Z
    raise NumericalFailure(
        "sign iteration did not converge (Hamiltonian eigenvalues on the imaginary axis?)"
    )


def care_stabilizing(A, G, Q) -> np.ndarray:
    """Stabilizing solution of A'X + XA - XGX + Q = 0.

    G and Q must be symmetric; G may be indefinite.  The stable invariant
    subspace of the Hamiltonian is extracted with the matrix sign function;
    the solution is accepted only if its residual is at most
    ``CARE_RESIDUAL_RTOL * (1 + ||X||_F)`` and A - GX is Hurwitz.

    Raises
    ------
    NumericalFailure
        If the sign iteration fails, the subspace is not a graph, the
        residual misses its tolerance, or A - GX is not Hurwitz.
    """
    A = _as_matrix(A, "A")
    G = _as_matrix(G, "G")
    Q = _as_matrix(Q, "Q")
    n = A.shape[0]
    if A.shape != (n, n) or G.shape != (n, n) or Q.shape != (n, n):
        raise ValueError("care_stabilizing: A, G, Q must be square of equal size")
    if n == 0:
        return np.zeros((0, 0))

    H = _block2(A, -G, -Q, -A.T)
    S = _matrix_sign(H)
    P = 0.5 * (np.eye(2 * n) - S)
    V1 = P[:n, :]
    V2 = P[n:, :]
    # Stable subspace must be the graph of X: X V1 = V2.
    X, _, rank, _ = np.linalg.lstsq(V1.T, V2.T, rcond=None)
    if rank < n:
        raise NumericalFailure("stable subspace is not a graph (rank deficiency)")
    X = X.T
    sym_err = np.linalg.norm(X - X.T, "fro") / (1.0 + np.linalg.norm(X, "fro"))
    if sym_err > 1e-6:
        raise NumericalFailure(f"solution not symmetric (err {sym_err:.2e})")
    X = 0.5 * (X + X.T)

    res_norm = np.linalg.norm(A.T @ X + X @ A - X @ G @ X + Q, "fro")
    tol = CARE_RESIDUAL_RTOL * (1.0 + np.linalg.norm(X, "fro"))
    if res_norm > tol:
        raise NumericalFailure(f"Riccati residual {res_norm:.2e} exceeds tolerance {tol:.2e}")
    if np.linalg.eigvals(A - G @ X).real.max() >= 0.0:
        raise NumericalFailure("A - GX is not Hurwitz: solution not stabilizing")
    return X


def solve_care(A, B, Q, R) -> np.ndarray:
    """Stabilizing solution of A'X + XA - X B R^-1 B' X + Q = 0.

    Q must be symmetric PSD, R symmetric PD, (A, B) stabilizable; violations
    surface either as an immediate ValueError (shape/symmetry/definiteness)
    or as :class:`~cwcancel.lti.NumericalFailure` from the sign iteration.
    """
    A = _as_matrix(A, "A")
    B = _as_matrix(B, "B")
    Q = _as_matrix(Q, "Q")
    R = _as_matrix(R, "R")
    n = A.shape[0]
    if B.shape[0] != n:
        raise ValueError(f"B has {B.shape[0]} rows, expected {n}")
    for name, M in (("Q", Q), ("R", R)):
        if np.linalg.norm(M - M.T, "fro") > 1e-10 * (1.0 + np.linalg.norm(M, "fro")):
            raise ValueError(f"{name} must be symmetric")
    if Q.shape != (n, n):
        raise ValueError(f"Q must be {n}x{n}")
    if R.shape != (B.shape[1], B.shape[1]):
        raise ValueError(f"R must be {B.shape[1]}x{B.shape[1]}")
    q_eigs = np.linalg.eigvalsh(0.5 * (Q + Q.T))
    if q_eigs.size and q_eigs.min() < -1e-10 * max(1.0, abs(q_eigs).max()):
        raise ValueError("Q must be positive semidefinite")
    r_eigs = np.linalg.eigvalsh(0.5 * (R + R.T))
    if r_eigs.size == 0 or r_eigs.min() <= 0.0:
        raise ValueError("R must be positive definite")
    G = B @ np.linalg.solve(R, B.T)
    G = 0.5 * (G + G.T)
    return care_stabilizing(A, G, Q)
