"""Discrete-time H-infinity norm with a proven two-sided bracket.

The norm-preserving bilinear map z = (1+s)/(1-s) takes the system to
continuous time, where gamma is a singular value of G(jw) exactly when jw is
an eigenvalue of the gamma-Hamiltonian (Boyd & Balakrishnan 1990; Bruinsma &
Steinbuch, Systems & Control Letters 1990).  The lower bound lb is always an
attained gain.  The first test at gamma = lb*(1+2*tol) with no imaginary-axis
eigenvalue proves the norm below gamma and ends the iteration; otherwise the
gain at and between the crossings raises lb.  Each test first checks the
proof's premise sigma_max(D_c) < gamma by a Cholesky factorization of
R = gamma^2 I - D_c^T D_c, and evaluates the frequency response only at the
crossings it flags and between them.  :func:`exceeds` runs one such test at
a given level and seeds nothing, so a level it proves costs no frequency
response; :func:`hinf_norm_discrete` seeds lb with the gains at theta = 0,
pi/2 and pi.  Both first refuse what no test can prove a bound for.
"""

from __future__ import annotations

import numpy as np

from .lti import NumericalFailure, StateSpace, _block2, bilinear_to_continuous, spectral_radius

__all__ = ["UnstableSystemError", "require_stable", "hinf_norm_discrete", "exceeds",
           "frequency_response"]

# Hamiltonian eigenvalues with |Re| <= this * (1 + |lambda|) lie on the axis.
_AXIS_RTOL = 1e-8
_MAX_PASSES = 50
# A level test reports a crossing only at a gain within this of the level.
LEVEL_RTOL = 5e-7


class UnstableSystemError(ValueError):
    """A discrete closed loop whose spectral radius is not below 1."""


def require_stable(A, loop: str) -> float:
    """The spectral radius of a discrete loop's state matrix A.

    A loop is usable only when the radius is below 1: an unstable loop has
    an infinite H-infinity norm and diverges when simulated.  Otherwise,
    a NaN radius included, raises :class:`UnstableSystemError` naming ``loop``.
    """
    radius = spectral_radius(A)
    if not radius < 1.0:
        raise UnstableSystemError(f"{loop}: spectral radius {radius:.9f} >= 1")
    return radius


def frequency_response(sys: StateSpace, thetas: np.ndarray) -> np.ndarray:
    """Transfer matrix C (e^{j theta} I - A)^{-1} B + D, shape (F, p, m)."""
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    E = np.exp(1j * thetas)[:, None, None] * np.eye(sys.n_states) - sys.A
    X = np.linalg.solve(E, np.broadcast_to(sys.B, (thetas.size,) + sys.B.shape))
    return sys.C @ X + sys.D


def _sigma_max(sys: StateSpace, thetas: np.ndarray) -> np.ndarray:
    resp = frequency_response(sys, thetas)  # no input or no output: every gain is 0
    return np.linalg.svd(resp, compute_uv=False).max(axis=1, initial=0.0)


def _is_zero_system(sys: StateSpace) -> bool:
    """D = 0 and every Markov parameter C A^k B with k < n is 0, so G = 0
    (Cayley-Hamilton covers k >= n).  Tested exactly, in floating point."""
    if np.any(sys.D):
        return False
    AkB = sys.B
    for _ in range(sys.n_states):
        if np.any(sys.C @ AkB):
            return False
        AkB = sys.A @ AkB
    return True


def _test_level(sys, sc, gamma: float, rtol: float):
    """One pass at level gamma on the continuous image ``sc`` of ``sys``: the
    peak gain at and between the axis crossings (0.0 when there are none), and
    whether gamma is crossed.

    The proof needs sigma_max(D_c) < gamma.  Where the Cholesky factorization
    of R = gamma^2 I - D_c^T D_c fails, the gain at theta = pi (G(-1) = D_c)
    is the peak if it reaches gamma*(1-rtol); else NumericalFailure is raised.
    eigvals moves an axis eigenvalue by about eps * ||H||, which dominates
    when R is nearly singular.  sigma_max reaches gamma at a true crossing,
    so only a peak of at least gamma*(1-rtol) counts as one.
    """
    A, B, C, D = sc.A, sc.B, sc.C, sc.D
    try:
        L = np.linalg.cholesky(gamma ** 2 * np.eye(D.shape[1]) - D.T @ D)
    except np.linalg.LinAlgError as exc:
        peak = float(_sigma_max(sys, np.array([np.pi]))[0])
        if peak < gamma * (1.0 - rtol):
            raise NumericalFailure(f"sigma_max(D_c) reaches the level {gamma:.9g}, "
                                   f"the gain {peak:.9g} at theta = pi does not") from exc
        return peak, True
    # With R = L L^T: B R^-1 B^T = Wb^T Wb, B R^-1 D^T C = Wb^T Wd and
    # C^T (I + D R^-1 D^T) C = C^T C + Wd^T Wd.
    W = np.linalg.solve(L, np.hstack([B.T, D.T @ C]))
    Wb, Wd = W[:, :A.shape[0]], W[:, A.shape[0]:]
    Ah = A + Wb.T @ Wd
    H = _block2(Ah, Wb.T @ Wb, -(C.T @ C + Wd.T @ Wd), -Ah.T)
    lam = np.linalg.eigvals(H)
    rounding = H.shape[0] * np.finfo(float).eps * np.linalg.norm(H, 1)
    on_axis = np.abs(lam.real) <= _AXIS_RTOL * (1.0 + np.abs(lam)) + rounding
    crossings = np.unique(2.0 * np.arctan(np.abs(lam[on_axis].imag)))
    if crossings.size == 0:
        return 0.0, False
    edges = np.concatenate([[0.0], crossings, [np.pi]])
    probes = np.concatenate([crossings, 0.5 * (edges[:-1] + edges[1:])])
    peak = float(_sigma_max(sys, probes).max())
    return peak, peak >= gamma * (1.0 - rtol)


def _require_premise(sys: StateSpace, name: str, value: float) -> None:
    """Refuse a system or a level that no missing crossing proves a bound for."""
    if not (sys.is_discrete and 0.0 < value < np.inf):
        raise ValueError(f"the H-infinity proof needs a discrete-time system and a "
                         f"finite positive {name}, got dt = {sys.dt}, {name} = {value}")
    require_stable(sys.A, "system")


def exceeds(sys: StateSpace, level: float) -> float | None:
    """A gain of at least level*(1-LEVEL_RTOL) that ``sys`` attains, or None
    when its H-infinity norm is proven below ``level``.

    One :func:`_test_level` at ``level`` decides, so a norm proven below the
    level costs no frequency response.  Raises ValueError unless ``sys`` is
    discrete and ``level`` finite and positive, :class:`UnstableSystemError`
    unless A is Schur stable, and NumericalFailure when sigma_max(D_c) reaches
    the level but the gain at theta = pi does not, or a bilinear map is singular.
    """
    _require_premise(sys, "level", level)
    peak, crossed = _test_level(sys, bilinear_to_continuous(sys, 1.0), level, LEVEL_RTOL)
    return peak if crossed else None


def hinf_norm_discrete(sys: StateSpace, tol: float) -> float:
    """A gain g that a Schur-stable discrete system attains, within 1+2*tol of its peak.

    g is the lower bound of the first level test that finds no crossing, which
    proves the norm below g*(1+2*tol).  Raises ValueError and UnstableSystemError
    as :func:`exceeds` does, with ``tol`` for its level, and NumericalFailure
    when no bound is proven: a level test raises, _MAX_PASSES tests all cross,
    or a nonzero system's gain is 0 at theta = 0, pi/2 and pi (no level to
    test).  A zero transfer function, one with no input or output too, is 0.0.
    """
    _require_premise(sys, "tol", tol)
    lb = float(_sigma_max(sys, np.array([0.0, np.pi / 2, np.pi])).max())
    if lb == 0.0 and _is_zero_system(sys):
        return 0.0
    sc = bilinear_to_continuous(sys, 1.0)
    try:
        for _ in range(_MAX_PASSES if lb > 0.0 else 0):
            peak, crossed = _test_level(sys, sc, lb * (1.0 + 2.0 * tol), tol)
            lb = max(lb, peak)
            if not crossed:
                return lb
    except NumericalFailure as exc:
        raise NumericalFailure(f"H-infinity norm not bracketed (lower bound {lb:.9g}): "
                               f"{exc}") from exc
    raise NumericalFailure(f"H-infinity norm not bracketed (lower bound {lb:.9g})")
