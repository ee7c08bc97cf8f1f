"""Continuous algebraic Riccati equations via the matrix sign function.

The solver works on the Hamiltonian level so the same core serves both the
standard LQ-type equation (PSD quadratic term) and the indefinite equations
that show up in gamma-level feedback synthesis.  Non-convergence of the sign
iteration is reported through :class:`NoStabilizingSolution`; callers in the
bisection loop rely on that signal to classify a gamma level as infeasible.
"""

from __future__ import annotations

import numpy as np

from .lti import _as_matrix

__all__ = [
    "NumericalFailure", "NoStabilizingSolution", "solve_care", "care_stabilizing",
    "is_hurwitz", "is_schur",
]

CARE_RESIDUAL_RTOL = 1e-8
SIGN_MAX_ITER = 120


class NumericalFailure(RuntimeError):
    """An iterative numerical routine failed to converge."""


class NoStabilizingSolution(NumericalFailure):
    """The Riccati equation admits no stabilizing solution at this data.

    Typically the Hamiltonian has eigenvalues on (or numerically at) the
    imaginary axis.  gamma-bisection treats this as "gamma infeasible".
    """


def _matrix_sign(H: np.ndarray, max_iter: int = SIGN_MAX_ITER) -> np.ndarray:
    """sign(H) by Newton iteration with determinant scaling."""
    Z = H.copy()
    n2 = Z.shape[0]
    rel_err = 1.0
    for _ in range(max_iter):
        try:
            Zinv = np.linalg.inv(Z)
        except np.linalg.LinAlgError as exc:
            raise NoStabilizingSolution(f"sign iteration hit a singular iterate: {exc}")
        if not np.all(np.isfinite(Zinv)):
            raise NoStabilizingSolution("sign iteration diverged (non-finite inverse)")
        if rel_err > 1e-2:
            sign_det, logdet = np.linalg.slogdet(Z)
            if sign_det == 0:
                raise NoStabilizingSolution("sign iteration: singular determinant")
            c = np.exp(-logdet / n2)
        else:
            c = 1.0
        Znew = 0.5 * (c * Z + Zinv / c)
        delta = np.linalg.norm(Znew - Z, "fro")
        scale = max(np.linalg.norm(Z, "fro"), 1e-300)
        rel_err = delta / scale
        Z = Znew
        if rel_err <= 50.0 * n2 * np.finfo(float).eps:
            return Z
    raise NoStabilizingSolution(
        "sign iteration did not converge (Hamiltonian eigenvalues on the imaginary axis?)"
    )


def is_hurwitz(A: np.ndarray) -> bool:
    """Strict open-left-half-plane test via the matrix sign function.

    Asking whether sign(A) = -I only needs the half-plane split, which stays
    well conditioned even for heavily defective eigenvalue clusters that
    stall a QR eigensolver.  Non-convergence (eigenvalues at or numerically
    on the axis) counts as not Hurwitz.
    """
    n = A.shape[0]
    if n == 0:
        return True
    try:
        S = _matrix_sign(A)
    except NoStabilizingSolution:
        return False
    return bool(np.linalg.norm(S + np.eye(n), "fro") <= 1e-2 * n)


def is_schur(A: np.ndarray) -> bool:
    """Strict unit-disc test: Cayley map to the half-plane, then sign test."""
    n = A.shape[0]
    if n == 0:
        return True
    ApI = A + np.eye(n)
    # An eigenvalue at -1 sits on the unit circle: not Schur.
    if abs(np.linalg.slogdet(ApI)[0]) < 0.5:
        return False
    try:
        C = np.linalg.solve(ApI, A - np.eye(n))
    except np.linalg.LinAlgError:
        return False
    return is_hurwitz(C)


def _lyapunov_ct(Acl: np.ndarray, RHS: np.ndarray) -> np.ndarray:
    """Solve Acl' X + X Acl = RHS by the Kronecker method (small n only)."""
    n = Acl.shape[0]
    I = np.eye(n)
    K = np.kron(Acl.T, I) + np.kron(I, Acl.T)
    x = np.linalg.solve(K, RHS.reshape(-1))
    X = x.reshape(n, n)
    return 0.5 * (X + X.T)


def care_stabilizing(
    A,
    G,
    Q,
    rtol: float = CARE_RESIDUAL_RTOL,
    max_refine: int = 3,
) -> np.ndarray:
    """Stabilizing solution of A'X + XA - XGX + Q = 0.

    G and Q must be symmetric; G may be indefinite.  The stable invariant
    subspace of the Hamiltonian is extracted with the matrix sign function
    and the solution is polished with Newton steps (each one a Lyapunov
    solve) until the residual meets ``rtol * (1 + ||X||_F)``.

    Raises
    ------
    NoStabilizingSolution
        If the sign iteration fails, the subspace is not a graph, the
        residual cannot be met, or A - GX is not Hurwitz.
    """
    A = _as_matrix(A, "A")
    G = _as_matrix(G, "G")
    Q = _as_matrix(Q, "Q")
    n = A.shape[0]
    if A.shape != (n, n) or G.shape != (n, n) or Q.shape != (n, n):
        raise ValueError("care_stabilizing: A, G, Q must be square of equal size")
    if n == 0:
        return np.zeros((0, 0))

    H = np.block([[A, -G], [-Q, -A.T]])
    S = _matrix_sign(H)
    P = 0.5 * (np.eye(2 * n) - S)
    V1 = P[:n, :]
    V2 = P[n:, :]
    # Stable subspace must be the graph of X: X V1 = V2.
    X, _, rank, _ = np.linalg.lstsq(V1.T, V2.T, rcond=None)
    if rank < n:
        raise NoStabilizingSolution("stable subspace is not a graph (rank deficiency)")
    X = X.T
    sym_err = np.linalg.norm(X - X.T, "fro") / (1.0 + np.linalg.norm(X, "fro"))
    if sym_err > 1e-6:
        raise NoStabilizingSolution(f"solution not symmetric (err {sym_err:.2e})")
    X = 0.5 * (X + X.T)

    def residual(Xc):
        return A.T @ Xc + Xc @ A - Xc @ G @ Xc + Q

    res = residual(X)
    res_norm = np.linalg.norm(res, "fro")
    tol = rtol * (1.0 + np.linalg.norm(X, "fro"))
    steps = 0
    while res_norm > tol and steps < max_refine:
        Acl = A - G @ X
        try:
            delta = _lyapunov_ct(Acl, -res)
        except np.linalg.LinAlgError:
            break
        X = 0.5 * ((X + delta) + (X + delta).T)
        res = residual(X)
        res_norm = np.linalg.norm(res, "fro")
        tol = rtol * (1.0 + np.linalg.norm(X, "fro"))
        steps += 1
    if res_norm > tol:
        raise NoStabilizingSolution(
            f"Riccati residual {res_norm:.2e} exceeds tolerance {tol:.2e}"
        )
    if not is_hurwitz(A - G @ X):
        raise NoStabilizingSolution("A - GX is not Hurwitz: solution not stabilizing")
    return X


def solve_care(A, B, Q, R, rtol: float = CARE_RESIDUAL_RTOL) -> np.ndarray:
    """Stabilizing solution of A'X + XA - X B R^-1 B' X + Q = 0.

    Q must be symmetric PSD, R symmetric PD, (A, B) stabilizable; violations
    surface either as an immediate ValueError (shape/symmetry/definiteness)
    or as :class:`NoStabilizingSolution` from the sign iteration.
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
    return care_stabilizing(A, G, Q, rtol=rtol)
