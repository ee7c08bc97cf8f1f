"""Discrete-time H-infinity norm with a proven two-sided bracket.

The norm-preserving bilinear map z = (1+s)/(1-s) takes the system to
continuous time, where gamma is a singular value of G(jw) exactly when jw is
an eigenvalue of the gamma-Hamiltonian (Boyd & Balakrishnan 1990; Bruinsma &
Steinbuch, Systems & Control Letters 1990).  The lower bound lb is always an
attained gain.  With no imaginary-axis eigenvalue at gamma = lb*(1+2*tol) the
norm is proven below gamma; otherwise the gain at and between the crossings
raises lb.  Each test first factors R = gamma^2 I - D_c^T D_c by Cholesky,
which also checks the proof's premise sigma_max(D_c) < gamma, and evaluates
the frequency response only at the crossings it flags and between them.
:func:`exceeds` runs one such test at a given level and seeds nothing, so a
level it proves costs no frequency response; :func:`hinf_norm_discrete`
seeds its lower bound with the gains at theta = 0, pi/2 and pi.
"""

from __future__ import annotations

import numpy as np

from .lti import NumericalFailure, StateSpace, bilinear_to_continuous, spectral_radius

__all__ = ["UnstableSystemError", "require_stable", "hinf_norm_discrete", "exceeds",
           "frequency_response"]

# Hamiltonian eigenvalues with |Re| <= this * (1 + |lambda|) lie on the axis.
_AXIS_RTOL = 1e-8
_MAX_PASSES = 50
# Passes that sharpen lb after the proof: a tighter level and a looser axis
# test, since only attained gains come out of them.
_POLISH_RTOL, _POLISH_AXIS_RTOL = 1e-12, 1e-4
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
    resp = frequency_response(sys, thetas)
    if resp.shape[1] == 0 or resp.shape[2] == 0:
        return np.zeros(resp.shape[0])
    return np.linalg.svd(resp, compute_uv=False)[:, 0]


def _seed_gain(sys: StateSpace) -> float:
    """Peak gain at theta = 0, pi/2 and pi (pi is s = infinity: sigma_max(D_c))."""
    return float(_sigma_max(sys, np.array([0.0, np.pi / 2, np.pi])).max())


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


def _test_level(sys, sc, gamma: float, rtol: float, axis_rtol: float = _AXIS_RTOL):
    """One pass at level gamma on the continuous image ``sc`` of ``sys``: the
    peak gain at and between the axis crossings (0.0 when there are none), and
    whether gamma is crossed.

    Raises ``np.linalg.LinAlgError`` when the Cholesky factorization of
    R = gamma^2 I - D_c^T D_c fails, that is unless sigma_max(D_c) < gamma.
    eigvals moves an axis eigenvalue by about eps * ||H||, which dominates when
    R is nearly singular.  sigma_max reaches gamma at a true crossing, so only
    a peak of at least gamma*(1-rtol) counts as one.
    """
    A, B, C, D = sc.A, sc.B, sc.C, sc.D
    L = np.linalg.cholesky(gamma ** 2 * np.eye(D.shape[1]) - D.T @ D)
    # With R = L L^T: B R^-1 B^T = Wb^T Wb, B R^-1 D^T C = Wb^T Wd and
    # C^T (I + D R^-1 D^T) C = C^T C + Wd^T Wd.
    W = np.linalg.solve(L, np.hstack([B.T, D.T @ C]))
    Wb, Wd = W[:, :A.shape[0]], W[:, A.shape[0]:]
    Ah = A + Wb.T @ Wd
    H = np.block([[Ah, Wb.T @ Wb], [-(C.T @ C + Wd.T @ Wd), -Ah.T]])
    lam = np.linalg.eigvals(H)
    rounding = H.shape[0] * np.finfo(float).eps * np.linalg.norm(H, 1)
    on_axis = np.abs(lam.real) <= axis_rtol * (1.0 + np.abs(lam)) + rounding
    crossings = np.unique(2.0 * np.arctan(np.abs(lam[on_axis].imag)))
    if crossings.size == 0:
        return 0.0, False
    edges = np.concatenate([[0.0], crossings, [np.pi]])
    probes = np.concatenate([crossings, 0.5 * (edges[:-1] + edges[1:])])
    peak = float(_sigma_max(sys, probes).max())
    return peak, peak >= gamma * (1.0 - rtol)


def exceeds(sys: StateSpace, level: float) -> float | None:
    """A gain of at least level*(1-LEVEL_RTOL) that Schur-stable ``sys``
    attains, or None when its H-infinity norm is proven below ``level``.

    The proof needs sigma_max(D_c) < level, where D_c = G(-1) is the gain at
    theta = pi; a failed Cholesky factorization of level^2 I - D_c^T D_c
    returns that gain.  Otherwise one Hamiltonian test at ``level`` decides,
    as in :func:`hinf_norm_discrete`, and the frequency response is
    evaluated only at its crossings and between them: a norm proven below
    the level costs none.
    """
    sc = bilinear_to_continuous(sys, 1.0)
    try:
        peak, crossed = _test_level(sys, sc, level, LEVEL_RTOL)
    except np.linalg.LinAlgError:
        gain = float(_sigma_max(sys, np.array([np.pi]))[0])
        if gain < level * (1.0 - LEVEL_RTOL):  # not the Cholesky premise that failed
            raise
        return gain
    return peak if crossed else None


def hinf_norm_discrete(sys: StateSpace, tol: float) -> float:
    """Peak singular value g of a Schur-stable discrete system over [0, pi].

    g is attained at some frequency, and the norm is proven to lie in
    [g, g*(1+2*tol)].  Raises :class:`UnstableSystemError` when
    :func:`require_stable` refuses A, and
    :class:`~cwcancel.lti.NumericalFailure` when no bound is proven,
    which includes a nonzero system whose gain is 0 at theta = 0, pi/2 and
    pi (no level to test) and a level that the continuous image's
    sigma_max(D_c) reaches.  A zero transfer function has norm 0.0.
    """
    if not sys.is_discrete:
        raise ValueError("hinf_norm_discrete expects a discrete-time system")
    require_stable(sys.A, "system")
    if sys.n_inputs == 0 or sys.n_outputs == 0:
        return 0.0

    sc = bilinear_to_continuous(sys, 1.0)
    lb = _seed_gain(sys)
    if lb == 0.0 and _is_zero_system(sys):
        return 0.0
    try:
        for _ in range(_MAX_PASSES if lb > 0.0 else 0):
            peak, crossed = _test_level(sys, sc, lb * (1.0 + 2.0 * tol), tol)
            lb = max(lb, peak)
            if not crossed:
                break
        else:
            raise NumericalFailure(f"H-infinity norm not bracketed (lower bound {lb:.9g})")
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"H-infinity norm not bracketed (lower bound {lb:.9g}): "
                               f"{exc}") from exc
    for _ in range(_MAX_PASSES):
        try:
            peak, crossed = _test_level(sys, sc, lb * (1.0 + 2.0 * _POLISH_RTOL), _POLISH_RTOL,
                                        _POLISH_AXIS_RTOL)
        except np.linalg.LinAlgError:
            # sigma_max(D_c) of the continuous image, the gain at theta = pi,
            # rounds above lb*(1+2e-12) when lb is that gain; the proof stands.
            break
        lb = max(lb, peak)
        if not crossed:
            break
    return lb
