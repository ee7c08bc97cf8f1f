"""State-space containers, matrix exponential, zero-order-hold discretization
and the bilinear (Tustin) maps between discrete and continuous time.

Everything downstream (plant assembly, lifting, synthesis, the H-infinity
certificate, simulation) moves data around as real (A, B, C, D) quadruples,
continuous-time or discrete-time with a fixed step.  This module is
numpy-only by design.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "StateSpace",
    "DimensionError",
    "NumericalFailure",
    "matrix_exponential",
    "discretize_zoh",
    "spectral_radius",
    "step_matches",
    "bilinear_to_continuous",
    "bilinear_to_discrete",
]

EXPM_PADE_THETA13 = 5.371920351148152


class DimensionError(ValueError):
    """Matrix dimensions are inconsistent with a state-space quadruple."""


class NumericalFailure(RuntimeError):
    """A numerical routine failed: no convergence, or a singular map."""


def _as_matrix(M, name: str) -> np.ndarray:
    A = np.atleast_2d(np.asarray(M, dtype=float))
    if A.ndim != 2:
        raise DimensionError(f"{name} must be a 2-D matrix, got ndim={A.ndim}")
    return A


@dataclass
class StateSpace:
    """Real LTI system x' = Ax + Bu, y = Cx + Du.

    ``dt`` is None for continuous time and the (positive) sampling period in
    seconds for discrete time.  Zero-state systems (n = 0) are allowed and
    represent pure gains.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    dt: float | None = None

    def __post_init__(self):
        A = _as_matrix(self.A, "A")
        self.A = A if A.size else A.reshape(0, 0)  # JSON's [] reads as (1, 0)
        self.B = _as_matrix(self.B, "B")
        self.C = _as_matrix(self.C, "C")
        self.D = _as_matrix(self.D, "D")
        n = self.A.shape[0]
        if self.A.shape[1] != n:
            raise DimensionError(f"A must be square, got {self.A.shape}")
        # Normalize empty matrices so n==0 systems keep consistent shapes.
        if n == 0:
            self.B = self.B.reshape(0, self.B.shape[1] if self.B.size else self.D.shape[1])
            self.C = self.C.reshape(self.C.shape[0] if self.C.size else self.D.shape[0], 0)
        if self.B.shape[0] != n:
            raise DimensionError(f"B has {self.B.shape[0]} rows, expected {n}")
        if self.C.shape[1] != n:
            raise DimensionError(f"C has {self.C.shape[1]} cols, expected {n}")
        if self.D.shape != (self.C.shape[0], self.B.shape[1]):
            raise DimensionError(
                f"D must be {self.C.shape[0]}x{self.B.shape[1]}, got {self.D.shape}"
            )
        for name, M in (("A", self.A), ("B", self.B), ("C", self.C), ("D", self.D)):
            if M.size and not np.all(np.isfinite(M)):
                raise ValueError(f"{name} contains non-finite entries")
        if self.dt is not None and not self.dt > 0:
            raise ValueError(f"discrete step must be positive, got {self.dt}")

    @property
    def n_states(self) -> int:
        return self.A.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.B.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.C.shape[0]

    @property
    def is_discrete(self) -> bool:
        return self.dt is not None


def spectral_radius(A) -> float:
    """Largest eigenvalue modulus of a square matrix; 0.0 when it is empty."""
    return float(np.abs(np.linalg.eigvals(A)).max(initial=0.0))


def step_matches(dt: float, period: float) -> bool:
    """True when a discrete step equals a sampling period to 1e-12 relative."""
    return abs(dt - period) <= 1e-12 * max(1.0, period)


def matrix_exponential(M) -> np.ndarray:
    """e^M by scaling-and-squaring with a degree-13 Pade approximant.

    Relative accuracy is at the 1e-13 level for well-conditioned inputs,
    comfortably inside the 1e-12 contract used by the discretization tests.
    """
    A = _as_matrix(M, "M")
    n, m = A.shape
    if n != m:
        raise DimensionError(f"matrix_exponential needs a square matrix, got {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix_exponential: input has non-finite entries")

    norm = np.linalg.norm(A, 1)
    if norm == 0.0:
        return np.eye(n)
    s = 0
    if norm > EXPM_PADE_THETA13:
        s = int(np.ceil(np.log2(norm / EXPM_PADE_THETA13)))
        A = A / (2.0**s)

    # Pade-13 coefficients (Higham 2005).
    b = (
        64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
        1187353796428800.0, 129060195264000.0, 10559470521600.0,
        670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
        960960.0, 16380.0, 182.0, 1.0,
    )
    I = np.eye(n)
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A2 @ A4
    U = A @ (
        A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
        + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * I
    )
    V = (
        A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
        + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * I
    )
    E = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        E = E @ E
    return E


def discretize_zoh(sys: StateSpace, step: float) -> StateSpace:
    """Zero-order-hold discretization of a continuous-time system.

    Ad = e^{A*step} and Bd = (integral_0^step e^{A s} ds) B are read off a
    single exponential of the augmented matrix [[A, B], [0, 0]]; C and D are
    unchanged.
    """
    if sys.is_discrete:
        raise ValueError("discretize_zoh expects a continuous-time system")
    if not step > 0:
        raise ValueError(f"discretization step must be positive, got {step}")
    n, m = sys.n_states, sys.n_inputs
    aug = np.zeros((n + m, n + m))
    aug[:n, :n] = sys.A * step
    aug[:n, n:] = sys.B * step
    E = matrix_exponential(aug)
    return StateSpace(E[:n, :n], E[:n, n:], sys.C.copy(), sys.D.copy(), dt=step)


def _bilinear_inverse(M: np.ndarray, name: str) -> np.ndarray:
    """M^-1 for a bilinear map, or :class:`NumericalFailure` when M is singular
    to working precision (condition number above 1e14)."""
    cond = np.linalg.cond(M)
    if cond > 1e14:
        raise NumericalFailure(f"bilinear map: {name} has condition number {cond:.3g}")
    return np.linalg.inv(M)


def bilinear_to_continuous(sys: StateSpace, alpha: float) -> StateSpace:
    """Exact Moebius map z = (alpha+s)/(alpha-s) from disc to left half-plane.

    Preserves the H-infinity norm and stability; requires -1 outside the
    spectrum of A (a pole at z = -1 maps to s = infinity).  Raises
    :class:`NumericalFailure` when A + I is singular to working precision.
    """
    A, B, C, D = sys.A, sys.B, sys.C, sys.D
    n = sys.n_states
    if n == 0:
        return StateSpace(A, B, C, D, dt=None)
    T = _bilinear_inverse(A + np.eye(n), "A + I (a pole at z = -1)")
    s2a = np.sqrt(2.0 * alpha)
    return StateSpace(alpha * (T @ (A - np.eye(n))), s2a * (T @ B),
                      s2a * (C @ T), D - C @ T @ B, dt=None)


def bilinear_to_discrete(sys: StateSpace, alpha: float, step: float) -> StateSpace:
    """Inverse of :func:`bilinear_to_continuous`, tagging the result with step.

    Raises :class:`NumericalFailure` when alpha I - A is singular to working
    precision (a pole at s = alpha maps to z = infinity).
    """
    A, B, C, D = sys.A, sys.B, sys.C, sys.D
    n = sys.n_states
    if n == 0:
        return StateSpace(A, B, C, D, dt=step)
    T = _bilinear_inverse(alpha * np.eye(n) - A, "alpha I - A (a pole at s = alpha)")
    s2a = np.sqrt(2.0 * alpha)
    return StateSpace(T @ (alpha * np.eye(n) + A), s2a * (T @ B),
                      s2a * (C @ T), D + C @ T @ B, dt=step)
