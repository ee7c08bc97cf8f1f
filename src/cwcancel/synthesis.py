"""Discrete-time H-infinity output-feedback synthesis on the lifted plant.

Route: exact bilinear (Tustin) map of the lifted plant to an equivalent
continuous-time problem, gamma-scaling, an exact scattering transform that
absorbs the w->z feedthrough, then the two-Riccati central controller:
stabilizing PSD solutions of the full-information and estimation Riccati
equations plus the spectral-radius coupling condition on their product.
The controller is mapped back through the inverse bilinear transform and
certified against an independent frequency sweep.

All transforms are norm- and stability-preserving, so a controller feasible
for the transformed problem is feasible for the lifted discrete one; the
certification step checks exactly that on the original plant.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

from .hnorm import hinf_norm_discrete
from .lifting import LiftedPlant, closed_loop
from .lti import StateSpace, spectral_radius
from .riccati import NoStabilizingSolution, care_stabilizing, is_schur

__all__ = [
    "DigitalController",
    "SynthesisResult",
    "Infeasible",
    "SynthesisError",
    "synthesize_at_gamma",
    "bisect_gamma",
    "bilinear_to_continuous",
    "bilinear_to_discrete",
    "controller_to_dict",
    "controller_from_dict",
]

SYNTH_TOL_DEFAULT = 1e-3
REG_EPS = 1e-8
CARE_SYNTH_RTOL = 1e-7
_PSD_TOL = 1e-7


class SynthesisError(RuntimeError):
    """No acceptable controller could be synthesized."""


@dataclass
class DigitalController:
    """State-space canceler K(z) plus the performance level it certifies."""

    K: StateSpace
    gamma_achieved: float
    gamma_certified: float | None = None


@dataclass
class Infeasible:
    """Verdict returned by a failed gamma probe, with the failing condition."""

    reason: str
    detail: str = ""


@dataclass
class SynthesisResult:
    controller: DigitalController
    gamma_min: float
    bisection_trace: list  # (gamma, feasible) pairs in probe order


def bilinear_to_continuous(sys: StateSpace, alpha: float) -> StateSpace:
    """Exact Moebius map z = (alpha+s)/(alpha-s) from disc to left half-plane.

    Preserves the H-infinity norm and stability; requires -1 outside the
    spectrum of A (a pole at z = -1 maps to s = infinity).
    """
    A, B, C, D = sys.A, sys.B, sys.C, sys.D
    n = sys.n_states
    if n == 0:
        return StateSpace(A, B, C, D, dt=None)
    ApI = A + np.eye(n)
    if np.linalg.cond(ApI) > 1e14:
        warnings.warn("bilinear transform near pole at z=-1; regularizing A")
        A = A * (1.0 - 1e-9)
        ApI = A + np.eye(n)
    T = np.linalg.inv(ApI)
    s2a = np.sqrt(2.0 * alpha)
    return StateSpace(alpha * (T @ (A - np.eye(n))), s2a * (T @ B),
                      s2a * (C @ T), D - C @ T @ B, dt=None)


def bilinear_to_discrete(sys: StateSpace, alpha: float, step: float) -> StateSpace:
    """Inverse of :func:`bilinear_to_continuous`, tagging the result with step."""
    A, B, C, D = sys.A, sys.B, sys.C, sys.D
    n = sys.n_states
    if n == 0:
        return StateSpace(A, B, C, D, dt=step)
    AmI = alpha * np.eye(n) - A
    if np.linalg.cond(AmI) > 1e14:
        warnings.warn("inverse bilinear transform near pole at s=alpha; regularizing A")
        A = A * (1.0 - 1e-9)
        AmI = alpha * np.eye(n) - A
    T = np.linalg.inv(AmI)
    s2a = np.sqrt(2.0 * alpha)
    return StateSpace(T @ (alpha * np.eye(n) + A), s2a * (T @ B),
                      s2a * (C @ T), D + C @ T @ B, dt=step)


def _inv_sqrt_psd(M: np.ndarray) -> np.ndarray:
    w, V = np.linalg.eigh(0.5 * (M + M.T))
    if w.min() <= 0.0:
        raise NoStabilizingSolution("scattering transform lost definiteness")
    return (V * (1.0 / np.sqrt(w))) @ V.T


def _sigma_max_coarse(sys: StateSpace, points: int = 33) -> float:
    """Largest singular value over a coarse frequency grid (a lower bound)."""
    from .hnorm import _sigma_max

    return float(_sigma_max(sys, np.linspace(0.0, np.pi, points)).max())


def _regularize_rank(Dblk: np.ndarray, eps: float = REG_EPS) -> np.ndarray:
    """Lift singular values of a feedthrough block to at least eps."""
    if min(Dblk.shape) == 0:
        return Dblk
    U, s, Vt = np.linalg.svd(Dblk, full_matrices=False)
    if s.size and s.min() >= eps:
        return Dblk
    s = np.maximum(s, eps)
    return (U * s) @ Vt


@dataclass
class _Parts:
    A: np.ndarray
    B1: np.ndarray
    B2: np.ndarray
    C1: np.ndarray
    C2: np.ndarray
    D11: np.ndarray
    D12: np.ndarray
    D21: np.ndarray
    D22: np.ndarray


def _partition(G: StateSpace, nw: int, nz: int) -> _Parts:
    return _Parts(
        A=G.A,
        B1=G.B[:, :nw], B2=G.B[:, nw:],
        C1=G.C[:nz, :], C2=G.C[nz:, :],
        D11=G.D[:nz, :nw], D12=G.D[:nz, nw:],
        D21=G.D[nz:, :nw], D22=G.D[nz:, nw:],
    )


def _absorb_w_feedthrough(p: _Parts) -> _Parts:
    """Exact constant scattering wrap of the (w, z) channels zeroing D11.

    Valid whenever the largest singular value of D11 is below one (the
    gamma-scaled target level); preserves the norm-less-than-one property of
    every closed loop and leaves the controller untouched.
    """
    N = p.D11
    Tn = N.T @ np.linalg.inv(np.eye(N.shape[0]) - N @ N.T)
    Sw = _inv_sqrt_psd(np.eye(N.shape[1]) - N.T @ N)
    Sz = _inv_sqrt_psd(np.eye(N.shape[0]) - N @ N.T)
    return _Parts(
        A=p.A + p.B1 @ Tn @ p.C1,
        B1=p.B1 @ Sw,
        B2=p.B2 + p.B1 @ Tn @ p.D12,
        C1=Sz @ p.C1,
        C2=p.C2 + p.D21 @ Tn @ p.C1,
        D11=np.zeros_like(p.D11),
        D12=Sz @ p.D12,
        D21=p.D21 @ Sw,
        D22=p.D22 + p.D21 @ Tn @ p.D12,
    )


def _central_controller(p: _Parts) -> StateSpace:
    """Two-Riccati central controller at level 1 for a plant with D11 = 0.

    Solvability is the classical triple: stabilizing PSD solutions X of the
    full-information Riccati and Y of the dual (estimation) Riccati, plus the
    coupling condition rho(XY) < 1.  Both equations keep the feedthrough
    cross terms in the quadratic completion.  The controller is the
    certainty-equivalence observer driven by the worst-case disturbance
    estimate, with filter gain built from Y (I - XY)^{-1}.

    Raises :class:`NoStabilizingSolution` (message tagged ``X:``, ``Y:`` or
    ``coupling:``) when a condition fails.
    """
    A, B1, B2, C1, C2 = p.A, p.B1, p.B2, p.C1, p.C2
    D12, D21 = p.D12, p.D21
    n = A.shape[0]

    Ru = D12.T @ D12
    At_x = A - B2 @ np.linalg.solve(Ru, D12.T @ C1)
    Gx = B2 @ np.linalg.solve(Ru, B2.T) - B1 @ B1.T
    Qx = C1.T @ C1 - (C1.T @ D12) @ np.linalg.solve(Ru, D12.T @ C1)
    try:
        X = care_stabilizing(At_x, 0.5 * (Gx + Gx.T), 0.5 * (Qx + Qx.T),
                             rtol=CARE_SYNTH_RTOL, max_refine=2)
    except NoStabilizingSolution as exc:
        raise NoStabilizingSolution(f"X: {exc}") from exc
    x_eigs = np.linalg.eigvalsh(X)
    if x_eigs.size and x_eigs.min() < -_PSD_TOL * (1.0 + abs(x_eigs).max()):
        raise NoStabilizingSolution("X: full-information Riccati solution not PSD")

    Ry = D21 @ D21.T
    At_y = (A - B1 @ D21.T @ np.linalg.solve(Ry, C2)).T
    Gy = C2.T @ np.linalg.solve(Ry, C2) - C1.T @ C1
    Qy = B1 @ B1.T - (B1 @ D21.T) @ np.linalg.solve(Ry, D21 @ B1.T)
    try:
        Y = care_stabilizing(At_y, 0.5 * (Gy + Gy.T), 0.5 * (Qy + Qy.T),
                             rtol=CARE_SYNTH_RTOL, max_refine=2)
    except NoStabilizingSolution as exc:
        raise NoStabilizingSolution(f"Y: {exc}") from exc
    y_eigs = np.linalg.eigvalsh(Y)
    if y_eigs.size and y_eigs.min() < -_PSD_TOL * (1.0 + abs(y_eigs).max()):
        raise NoStabilizingSolution("Y: estimation Riccati solution not PSD")

    # rho(XY) through the symmetric form sqrt(X) Y sqrt(X): X and Y are PSD,
    # so the spectrum is real and the symmetric solver is the stable route.
    wx, Vx = np.linalg.eigh(X)
    Xh = (Vx * np.sqrt(np.clip(wx, 0.0, None))) @ Vx.T
    rho = float(np.linalg.eigvalsh(Xh @ Y @ Xh).max()) if X.shape[0] else 0.0
    if rho >= 1.0 - 1e-9:
        raise NoStabilizingSolution(f"coupling: rho(XY) = {rho:.6f} >= 1")

    F2 = -np.linalg.solve(Ru, B2.T @ X + D12.T @ C1)
    F1 = B1.T @ X
    At = A + B1 @ F1
    Ct2 = C2 + D21 @ F1
    Ytmp = np.linalg.solve(np.eye(n) - Y @ X, Y)
    Ytmp = 0.5 * (Ytmp + Ytmp.T)

    Kf = np.linalg.solve(Ry.T, (Ytmp @ Ct2.T + B1 @ D21.T).T).T
    Ak = At + B2 @ F2 - Kf @ Ct2
    return StateSpace(Ak, Kf, F2, np.zeros((F2.shape[0], Kf.shape[1])))


def synthesize_at_gamma(Gl: LiftedPlant, gamma: float):
    """Central controller at level gamma, or an :class:`Infeasible` verdict.

    The verdict's ``reason`` distinguishes which condition failed:
    ``"d11"`` (constant-feedthrough bound), ``"care_x"`` or ``"care_y"``
    (no stabilizing PSD Riccati solution), ``"coupling"`` (spectral-radius
    condition), or ``"closed_loop"`` (the assembled loop failed the Schur
    check).
    """
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    G = Gl.G
    if not G.is_discrete:
        raise ValueError("synthesis expects a discrete-time lifted plant")
    if Gl.n_z < Gl.n_u or Gl.n_w < Gl.n_y:
        raise ValueError(
            "ill-posed standard problem: need at least as many error outputs as "
            "controls and at least as many disturbances as measurements"
        )
    alpha = 2.0 / G.dt

    Gc = bilinear_to_continuous(G, alpha)
    p = _partition(Gc, Gl.n_w, Gl.n_z)
    p = _Parts(
        A=p.A, B1=p.B1, B2=p.B2,
        C1=p.C1 / gamma, C2=p.C2,
        D11=p.D11 / gamma, D12=p.D12 / gamma,
        D21=p.D21, D22=p.D22,
    )

    if min(p.D11.shape) > 0:
        s_max = np.linalg.svd(p.D11, compute_uv=False)[0]
        if s_max >= 1.0 - 1e-9:
            return Infeasible("d11", f"sigma_max(D11)/gamma = {s_max:.6f} >= 1")
        p = _absorb_w_feedthrough(p)

    d_shift = p.D22
    p = _Parts(p.A, p.B1, p.B2, p.C1, p.C2, p.D11,
               _regularize_rank(p.D12), _regularize_rank(p.D21),
               np.zeros_like(p.D22))

    try:
        Kc = _central_controller(p)
    except NoStabilizingSolution as exc:
        msg = str(exc)
        if msg.startswith("Y:"):
            reason = "care_y"
        elif msg.startswith("coupling:"):
            reason = "coupling"
        else:
            reason = "care_x"
        return Infeasible(reason, msg)
    except np.linalg.LinAlgError as exc:
        # Conservative: a linear-algebra breakdown inside the Riccati
        # machinery is treated like any other solver failure at this level.
        return Infeasible("care_x", f"linear algebra failure: {exc}")

    # Restore the feedthrough set aside before synthesis (D_K = 0 keeps this
    # a pure state-matrix correction), then map back to discrete time.
    Ak = Kc.A - Kc.B @ d_shift @ Kc.C
    Kc = StateSpace(Ak, Kc.B, Kc.C, Kc.D)
    Kd = bilinear_to_discrete(Kc, alpha, G.dt)

    cl = closed_loop(Gl, Kd)
    if not is_schur(cl.A):
        return Infeasible("closed_loop", "assembled loop failed the Schur stability test")
    # Coarse lower bound on the achieved norm: catches the rare case where
    # rank regularization manufactured control authority the true plant lacks.
    coarse = _sigma_max_coarse(cl)
    if coarse > gamma * (1.0 + 1e-6):
        return Infeasible("closed_loop", f"closed-loop gain {coarse:.6f} exceeds gamma")
    return DigitalController(K=Kd, gamma_achieved=float(gamma))


def bisect_gamma(
    Gl: LiftedPlant,
    tol: float = SYNTH_TOL_DEFAULT,
    max_doublings: int = 60,
    max_probes: int = 200,
) -> SynthesisResult:
    """gamma-bisection around :func:`synthesize_at_gamma`.

    The upper bracket is found by doubling from gamma = 1; bisection then
    narrows until (hi - lo)/lo <= tol.  The returned controller is the one
    synthesized at the final upper bracket, certified post hoc with an
    independent frequency sweep of the closed loop.
    """
    trace: list = []

    def probe(g: float):
        res = synthesize_at_gamma(Gl, g)
        trace.append((float(g), isinstance(res, DigitalController)))
        return res

    hi = 1.0
    res = probe(hi)
    doublings = 0
    last_reason = ""
    while isinstance(res, Infeasible):
        last_reason = f"{res.reason}: {res.detail}"
        doublings += 1
        if doublings > max_doublings:
            raise SynthesisError(
                f"no feasible gamma after {max_doublings} doublings (last: {last_reason})"
            )
        hi *= 2.0
        res = probe(hi)

    lo = 0.0
    best = res
    probes = len(trace)
    while probes < max_probes:
        if lo > 0.0 and (hi - lo) / lo <= tol:
            break
        if hi < 1e-12:
            break
        mid = 0.5 * (hi + lo)
        res = probe(mid)
        probes += 1
        if isinstance(res, DigitalController):
            hi, best = mid, res
        else:
            lo = mid

    cl = closed_loop(Gl, best.K)
    radius = spectral_radius(cl.A)
    if radius >= 1.0:
        raise SynthesisError(f"final closed loop unstable (radius {radius:.6f})")
    cert = hinf_norm_discrete(cl, tol=1e-6)
    if cert > best.gamma_achieved * (1.0 + 1e-3):
        raise SynthesisError(
            f"certificate {cert:.6f} contradicts synthesis level {best.gamma_achieved:.6f}"
        )
    best.gamma_certified = float(cert)
    return SynthesisResult(controller=best, gamma_min=float(hi), bisection_trace=trace)


def controller_to_dict(ctrl: DigitalController) -> dict:
    """JSON-ready controller document (row-major matrix arrays)."""
    K = ctrl.K
    return {
        "a": K.A.tolist(),
        "b": K.B.tolist(),
        "c": K.C.tolist(),
        "d": K.D.tolist(),
        "step_seconds": K.dt,
        "gamma_achieved": ctrl.gamma_achieved,
        "gamma_certified": ctrl.gamma_certified,
    }


def controller_from_dict(doc: dict) -> DigitalController:
    try:
        K = StateSpace(doc["a"], doc["b"], doc["c"], doc["d"], dt=float(doc["step_seconds"]))
        gamma_achieved = float(doc["gamma_achieved"])
        gamma_certified = doc.get("gamma_certified")
        if gamma_certified is not None:
            gamma_certified = float(gamma_certified)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed controller document: {exc}") from exc
    return DigitalController(K=K, gamma_achieved=gamma_achieved, gamma_certified=gamma_certified)


def save_controller(ctrl: DigitalController, path) -> None:
    with open(path, "w") as fh:
        json.dump(controller_to_dict(ctrl), fh, indent=2)
        fh.write("\n")


def load_controller(path) -> DigitalController:
    with open(path) as fh:
        return controller_from_dict(json.load(fh))
